//go:build !linux

package threadpool

// yieldCPU is a no-op where the repo does not reach the scheduler: a
// waiter there yields its P only, and never sees a busy host.
func yieldCPU() {}
