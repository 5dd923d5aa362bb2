//go:build !linux

package main

import "time"

// preciseSleep falls back to the runtime's timers where nanosleep(2) is not
// in package syscall; expect serve.gen_late_ms_p90 near a millisecond.
func preciseSleep(d time.Duration) { time.Sleep(d) }
