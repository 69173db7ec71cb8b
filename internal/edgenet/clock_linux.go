//go:build linux

package edgenet

import (
	"syscall"
	"time"
)

// Linux's runtime timers wait in whole milliseconds (the netpoller rounds a
// sub-millisecond wait up to 1 ms), so a bare timer ends a 150 µs task
// about a millisecond late. sleepUntil arms a timer for all but the last
// millisecond and sleeps that millisecond in nanosleep slices instead.
const (
	timerMargin = time.Millisecond
	sliceMax    = 200 * time.Microsecond
)

// sleepUntil waits until end and reports true, or false as soon as hangup
// or abort closes: the task is dropped unfinished. It returns within tens
// of µs after end (the kernel's timer slack on the last slice), and within
// one slice of a stop in the last millisecond. Only then does it hold an OS
// thread, blocked in nanosleep.
func sleepUntil(end time.Time, hangup, abort <-chan struct{}) bool {
	if d := time.Until(end) - timerMargin; d > 0 {
		timer := time.NewTimer(d)
		select {
		case <-timer.C:
		case <-hangup:
			timer.Stop()
			return false
		case <-abort:
			timer.Stop()
			return false
		}
	}
	for {
		select {
		case <-hangup:
			return false
		case <-abort:
			return false
		default:
		}
		d := time.Until(end)
		if d <= 0 {
			return true
		}
		ts := syscall.NsecToTimespec(int64(min(d, sliceMax)))
		syscall.Nanosleep(&ts, nil) //nolint:errcheck // EINTR: the loop re-checks the clock
	}
}
