package cli

import (
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"time"

	"repro"
	"repro/internal/mpinet"
)

// RunNet executes this process as one rank of a multi-process TCP world
// (-net-rank/-net-size/-net-addr). Only the process holding final
// rank 0 prints the banner and should report; other ranks run quietly.
func RunNet(a Args) (nr *examl.NetResult, err error) {
	err = prelude(a, func(d *examl.Dataset, cfg examl.Config) (err error) {
		nr, err = examl.InferNet(d, cfg, examl.NetConfig{
			Rank:          a.NetRank,
			Size:          a.NetSize,
			Addr:          a.NetAddr,
			Nonce:         a.NetNonce,
			MaxRecoveries: a.NetRecoveries,
		})
		return err
	})
	return nr, err
}

// rankPath makes a per-rank variant of an output path.
func rankPath(path string, rank int) string {
	return fmt.Sprintf("%s.rank%d", path, rank)
}

// ReportNet prints the per-process outcome. Exactly one process holds
// final rank 0 (even after a recovery re-ranks the survivors); that one
// writes the full report and the tree file.
func ReportNet(a Args, nr *examl.NetResult) {
	if nr.Recovered {
		fmt.Printf("recovered: world re-formed %d time(s), resumed from iteration %d on %d survivors\n",
			nr.Epochs-1, nr.ResumedIteration, nr.Size)
	}
	if nr.Rank == 0 && nr.Result != nil {
		Report(a, nr.Result)
		return
	}
	fmt.Printf("net rank %d/%d: done\n", nr.Rank, nr.Size)
}

// Launch forks one worker process per rank over loopback TCP, waits for
// all of them, and fails if any worker fails. The workers re-run this
// binary with the same flags plus -net-rank/-net-size/-net-addr/
// -net-nonce overrides (later flags win over earlier ones).
func Launch(a Args) error {
	if err := Validate(a); err != nil {
		return err
	}
	size := a.NetSize
	if size == 0 {
		size = a.Ranks
	}
	if size < 1 {
		return fmt.Errorf("-net-launch needs a world size (-net-size or -np)")
	}
	addr := a.NetAddr
	if addr == "" {
		var err error
		if addr, err = mpinet.ReserveLoopbackAddr(); err != nil {
			return fmt.Errorf("reserving a rendezvous port: %w", err)
		}
	}
	nonce := a.NetNonce
	if nonce == 0 {
		nonce = uint64(time.Now().UnixNano()) ^ uint64(os.Getpid())<<32
	}
	exe, err := os.Executable()
	if err != nil {
		return fmt.Errorf("locating this binary: %w", err)
	}

	fmt.Printf("launching %d worker processes, rendezvous at %s (nonce %d)\n", size, addr, nonce)
	procs := make([]*exec.Cmd, size)
	for r := 0; r < size; r++ {
		args := append([]string(nil), os.Args[1:]...)
		args = append(args,
			"-net-launch=false",
			"-net-rank", strconv.Itoa(r),
			"-net-size", strconv.Itoa(size),
			"-net-addr", addr,
			"-net-nonce", strconv.FormatUint(nonce, 10),
		)
		cmd := exec.Command(exe, args...)
		cmd.Stdout = os.Stdout
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			killAll(procs)
			return fmt.Errorf("starting worker rank %d: %w", r, err)
		}
		procs[r] = cmd
	}

	// Wait for everyone. A crashed worker does not necessarily doom the
	// run — under the decentralized scheme the survivors re-form and
	// finish (exiting 0) — so the launch fails only when no process
	// succeeded. Every rendezvous, dial, and heartbeat path in mpinet is
	// deadline-bounded, so waiting never hangs on a dead peer.
	var firstErr error
	failed := 0
	for r, cmd := range procs {
		if err := cmd.Wait(); err != nil {
			failed++
			if firstErr == nil {
				firstErr = fmt.Errorf("worker rank %d: %w", r, err)
			}
		}
	}
	switch {
	case failed == size:
		return firstErr
	case failed > 0:
		fmt.Printf("%d of %d workers failed (%v); the run completed on the survivors\n", failed, size, firstErr)
	default:
		fmt.Printf("all %d workers finished\n", size)
	}
	return nil
}

// killAll force-terminates any still-tracked worker processes.
func killAll(procs []*exec.Cmd) {
	for _, cmd := range procs {
		if cmd != nil && cmd.Process != nil {
			cmd.Process.Kill()
		}
	}
}
