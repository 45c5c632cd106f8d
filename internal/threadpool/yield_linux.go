package threadpool

import "syscall"

// yieldCPU gives the calling thread's CPU to any other thread the kernel
// has waiting for it (sched_yield); with none waiting it returns at once.
func yieldCPU() { syscall.RawSyscall(syscall.SYS_SCHED_YIELD, 0, 0, 0) }
