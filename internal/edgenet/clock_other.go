//go:build !linux

package edgenet

import "time"

// sleepUntil waits on one runtime timer until end and reports true, or
// false as soon as hangup or abort closes: the task is dropped unfinished.
func sleepUntil(end time.Time, hangup, abort <-chan struct{}) bool {
	timer := time.NewTimer(time.Until(end))
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-hangup:
		return false
	case <-abort:
		return false
	}
}
