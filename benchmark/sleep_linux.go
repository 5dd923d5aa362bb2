//go:build linux

package main

import (
	"syscall"
	"time"
)

// preciseSleep blocks for d in nanosleep(2). time.Sleep is not good enough
// for an open-loop schedule: the runtime's timers ride on the netpoller,
// whose waits are whole milliseconds, so a sleep overshoots by up to a
// millisecond (measured on the reference host: 0.4 to 0.9 ms, against 0.07 to
// 0.15 ms here) and the sender would be late on every request by about the
// time a cache hit takes.
func preciseSleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for {
		var rem syscall.Timespec
		if err := syscall.Nanosleep(&ts, &rem); err != syscall.EINTR {
			return
		}
		ts = rem
	}
}
