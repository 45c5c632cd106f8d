package fault

import (
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/decentral"
	"repro/internal/enginecore"
	"repro/internal/model"
	"repro/internal/mpi"
	"repro/internal/mpinet"
	"repro/internal/search"
)

func reserveLoopbackAddr(t *testing.T) string {
	t.Helper()
	addr, err := mpinet.ReserveLoopbackAddr()
	if err != nil {
		t.Fatal(err)
	}
	return addr
}

// TestRunNetSurvivesPeerLoss kills one of three TCP ranks after its
// first search iteration. The survivors must detect the loss, re-form
// the world on the recovery port, agree on the newest replica, and
// finish the search — producing the bit-identical result the in-process
// failure-injection harness (fault.Run) produces for the same scenario,
// since both resume the same snapshot on the same survivor count.
func TestRunNetSurvivesPeerLoss(t *testing.T) {
	d := makeDataset(t, 8, 2, 50, 6)
	scfg := search.Config{Het: model.Gamma, Seed: 9, MaxIterations: 3}

	ref, _, refReport, err := Run(d, Plan{
		Run:                enginecore.RunConfig{Ranks: 3, Search: scfg},
		FailRanks:          1,
		FailAfterIteration: 1,
	})
	if err != nil {
		t.Fatal(err)
	}

	base := mpinet.Config{
		Size:              3,
		Addr:              reserveLoopbackAddr(t),
		Nonce:             77,
		HeartbeatInterval: 50 * time.Millisecond,
		HeartbeatTimeout:  2 * time.Second,
		RecoveryWindow:    400 * time.Millisecond,
	}

	type out struct {
		res    *search.Result
		report *NetReport
		err    error
	}
	outs := make([]out, 3)
	var wg sync.WaitGroup

	// Ranks 0 and 2 are fault-tolerant survivors.
	for _, rank := range []int{0, 2} {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			cfg := base
			cfg.Rank = rank
			res, _, report, err := RunNet(d, NetPlan{
				Net:           cfg,
				Run:           enginecore.RunConfig{Search: scfg},
				MaxRecoveries: 1,
			})
			outs[rank] = out{res, report, err}
		}(rank)
	}

	// Rank 1 is the victim: it participates normally until its first
	// iteration completes, then drops off the network mid-run.
	wg.Add(1)
	go func() {
		defer wg.Done()
		cfg := base
		cfg.Rank = 1
		tr, err := mpinet.Connect(cfg)
		if err != nil {
			outs[1].err = err
			return
		}
		c := mpi.NewComm(tr, 1, 3, mpi.NewMeter())
		victim := scfg
		victim.OnIteration = func(_ *search.Searcher, iter int, _ float64) {
			if iter == 1 {
				c.Close()
			}
		}
		_, _, err = decentral.RunOnComm(c, d, enginecore.RunConfig{Search: victim})
		if err == nil {
			outs[1].err = net.ErrClosed // placeholder: the victim must not finish
		}
	}()
	wg.Wait()

	if outs[1].err != nil && outs[1].err == net.ErrClosed {
		t.Fatal("victim rank completed the run despite dropping its transport")
	}
	for _, rank := range []int{0, 2} {
		o := outs[rank]
		if o.err != nil {
			t.Fatalf("survivor rank %d: %v", rank, o.err)
		}
		if !o.report.Recovered || o.report.Epochs != 2 {
			t.Errorf("survivor rank %d: report %+v, want a single recovery", rank, o.report)
		}
		if o.report.ResumedIteration != refReport.CheckpointIteration {
			t.Errorf("survivor rank %d resumed from iteration %d, in-process harness from %d",
				rank, o.report.ResumedIteration, refReport.CheckpointIteration)
		}
		if o.report.FinalSize != 2 {
			t.Errorf("survivor rank %d: final world size %d, want 2", rank, o.report.FinalSize)
		}
		if math.Float64bits(o.res.LnL) != math.Float64bits(ref.LnL) {
			t.Errorf("survivor rank %d: lnL %.17g not bit-identical to in-process recovery %.17g",
				rank, o.res.LnL, ref.LnL)
		}
		if o.res.Tree.Newick() != ref.Tree.Newick() {
			t.Errorf("survivor rank %d: recovered topology differs from in-process recovery", rank)
		}
	}
	if outs[0].report.FinalRank == outs[2].report.FinalRank {
		t.Error("survivors claim the same recovered rank")
	}
}
