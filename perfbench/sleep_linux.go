package main

import (
	"syscall"
	"time"
)

// sleepUntil blocks until t. The Go runtime's timers may wake up to a
// millisecond late when the process is otherwise idle, which is a large
// share of a few-millisecond request; a nanosleep system call wakes
// within microseconds, so the generator sends on schedule.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil)
	}
}
