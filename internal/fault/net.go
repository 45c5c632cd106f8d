package fault

import (
	"errors"
	"fmt"

	"repro/internal/checkpoint"
	"repro/internal/decentral"
	"repro/internal/enginecore"
	"repro/internal/mpi"
	"repro/internal/mpinet"
	"repro/internal/msa"
	"repro/internal/search"
)

// NetPlan configures one process of a fault-tolerant multi-process run.
type NetPlan struct {
	// Net is the rendezvous configuration (rank, size, address, nonce).
	Net mpinet.Config
	// Run is the de-centralized run configuration; Run.Ranks is ignored
	// (the live world size is used).
	Run enginecore.RunConfig
	// MaxRecoveries bounds how many times the survivors may re-form the
	// world after peer failures; 0 disables recovery entirely (a peer
	// loss is then returned as the error it is). It counts epochs, so a
	// replacement joining at JoinEpoch needs MaxRecoveries ≥ JoinEpoch.
	MaxRecoveries int
	// JoinEpoch, when > 0, makes this process a replacement worker: it
	// skips the initial rendezvous (that world is already gone) and
	// enters the recovery protocol directly at the given epoch, claiming
	// Net.Rank — the dead process's rank. It carries no snapshot, so the
	// restore exchange always adopts a survivor's checkpoint. Joining a
	// replacement restores the world to its previous size, which keeps
	// the resumed trajectory bit-identical to an undisturbed run.
	JoinEpoch int
	// OnRecovered, when set, is invoked after every successful recovery
	// (including a replacement's join) with this process's rank and the
	// world size in the new epoch, the epoch number, and the iteration
	// the search resumed from. Observational only.
	OnRecovered func(rank, size, epoch, resumedIteration int)
}

// NetReport describes how a fault-tolerant network run unfolded.
type NetReport struct {
	// Epochs is the number of worlds this process participated in
	// (1 = no failure).
	Epochs int
	// Recovered reports whether a checkpoint restore happened.
	Recovered bool
	// ResumedIteration is the iteration the last recovery resumed from.
	ResumedIteration int
	// FinalRank and FinalSize are this process's position in the world
	// that completed the run.
	FinalRank, FinalSize int
}

// RunNet executes one process of a de-centralized inference over TCP
// with survivor recovery: the §V fault-tolerance design of the
// in-process fault.Run, but against real process failures detected by
// the mpinet heartbeats instead of injected ones.
//
// Every iteration, each process snapshots its replica in memory (the
// paper's maximum state redundancy — any replica can seed a restart).
// When a peer is lost, Send/Recv surface *mpinet.PeerDownError, the
// survivors re-rendezvous on the epoch's recovery port (the epoch-th odd
// port above the base port, mpinet.Recover), agree on
// the most advanced replica via the rendezvous meta values (ties broken
// toward the lowest new rank), broadcast that replica's checkpoint over
// the new mesh, and resume the search from it on the reduced world. The
// communication meter is reset after the restore exchange, so the
// RunStats of the completing epoch meter the resumed schedule only.
func RunNet(d *msa.Dataset, plan NetPlan) (*search.Result, *enginecore.RunStats, *NetReport, error) {
	// Capture the newest replica snapshot in memory on every iteration.
	runCfg := plan.Run
	latest := keepSnapshots(&runCfg.Search)
	latestIteration := func() uint64 {
		if snap := latest(); snap != nil {
			return uint64(snap.Iteration)
		}
		return 0
	}

	report := &NetReport{Epochs: 1, FinalRank: plan.Net.Rank, FinalSize: plan.Net.Size}
	cur := plan.Net // tracks this process's rank/size in the live world
	epoch := 0
	var comm *mpi.Comm
	var runErr error

	if plan.JoinEpoch > 0 {
		// Replacement worker: the world it would rendezvous with is
		// already dead, so it enters the recovery protocol directly at
		// the epoch the survivors are converging on. comm stays nil so
		// the loop below goes straight to the recovery phase.
		epoch = plan.JoinEpoch - 1
		report.Epochs = 0
		runErr = fmt.Errorf("fault: joining as a replacement at epoch %d", plan.JoinEpoch)
	} else {
		tr, err := mpinet.Connect(plan.Net)
		if err != nil {
			return nil, nil, nil, err
		}
		comm = mpi.NewComm(tr, plan.Net.Rank, plan.Net.Size, mpi.NewMeter())
	}

	for {
		if comm != nil {
			res, stats, err := decentral.RunOnComm(comm, d, runCfg)
			comm.Close()
			if err == nil {
				return res, stats, report, nil
			}
			var pd *mpinet.PeerDownError
			if !errors.As(err, &pd) {
				return nil, nil, report, err
			}
			runErr = err
		}

		// Survivor recovery: re-rendezvous on the next epoch's port. The
		// restore exchange can itself observe further failures, in which
		// case another epoch is attempted until the budget runs out.
		for {
			if epoch >= plan.MaxRecoveries {
				return nil, nil, report, fmt.Errorf("fault: recovery budget (%d) exhausted: %w", plan.MaxRecoveries, runErr)
			}
			epoch++
			report.Epochs++
			rw, rerr := mpinet.Recover(cur, epoch, latestIteration())
			if rerr != nil {
				return nil, nil, report, fmt.Errorf("fault: recovery after %q failed: %w", runErr, rerr)
			}
			cur.Rank, cur.Size = rw.Rank, rw.Size
			report.FinalRank, report.FinalSize = rw.Rank, rw.Size
			comm = mpi.NewComm(rw.Transport, rw.Rank, rw.Size, mpi.NewMeter())
			exErr := exchangeRestore(comm, rw, &runCfg, report, latest)
			if exErr == nil {
				break
			}
			comm.Close()
			var pd *mpinet.PeerDownError
			if !errors.As(exErr, &pd) {
				return nil, nil, report, exErr
			}
			runErr = exErr
		}
		// The restore exchange is recovery traffic, not part of the
		// resumed schedule's Table-I accounting.
		comm.Meter().Reset()
		if plan.Run.Telemetry != nil {
			plan.Run.Telemetry.EmitRecovery(cur.Rank, cur.Size, epoch, report.ResumedIteration)
		}
		if plan.OnRecovered != nil {
			plan.OnRecovered(cur.Rank, cur.Size, epoch, report.ResumedIteration)
		}
	}
}

// exchangeRestore makes the recovered world agree on the most advanced
// replica: the member with the highest rendezvous meta (checkpoint
// iteration; lowest new rank wins ties by the scan order) broadcasts
// its encoded checkpoint, everyone else restores from it. A zero best
// meta means the failure hit before the first completed iteration — the
// search restarts fresh, which is still correct, just slower. Transport
// failures during the exchange are returned as errors wrapping
// *mpinet.PeerDownError (never panics).
func exchangeRestore(comm *mpi.Comm, rw *mpinet.RecoveredWorld, runCfg *enginecore.RunConfig, report *NetReport, latest func() *checkpoint.State) (err error) {
	defer func() {
		p := recover()
		if p == nil {
			return
		}
		ce, ok := p.(*mpi.CommError)
		if !ok {
			panic(p)
		}
		err = fmt.Errorf("fault: restore exchange on recovered rank %d: %w", comm.Rank(), ce)
	}()

	src, best := 0, uint64(0)
	for r, m := range rw.Metas {
		if m > best {
			src, best = r, m
		}
	}
	if best == 0 {
		return nil
	}
	var blob []byte
	if comm.Rank() == src {
		s := latest()
		if s == nil || uint64(s.Iteration) != best {
			// The rendezvous meta promised a snapshot this process does
			// not hold — a protocol violation worth failing loudly on.
			return fmt.Errorf("fault: recovered rank %d advertised iteration %d but holds no such snapshot", src, best)
		}
		if blob, err = checkpoint.Encode(s); err != nil {
			return fmt.Errorf("fault: encoding restore checkpoint: %w", err)
		}
	}
	blob = comm.BcastBytes(src, blob, mpi.ClassControl)
	state, derr := checkpoint.Decode(blob)
	if derr != nil {
		return fmt.Errorf("fault: decoding restore checkpoint from recovered rank %d: %w", src, derr)
	}
	runCfg.Search.Restore = state
	report.Recovered = true
	report.ResumedIteration = state.Iteration
	return nil
}
