package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net"
	"sync"
	"time"

	examl "repro"
	"repro/internal/phyrun"
)

// outcome is what one op returns, whichever way it ran.
type outcome struct {
	tree       string
	lnL        float64
	iterations int
	comm       examl.CommReport
	wall       time.Duration
	rfTrue     int // Robinson-Foulds distance to the generating tree; set by check

	// Campaign only.
	tasksDone int
	supports  int
}

// infer is one untraced op: the time from the PHYLIP and partition bytes
// to the final Newick string, through the same entry points a user calls.
func (w *workload) infer(in *input, cfg examl.Config) (*outcome, error) {
	start := time.Now()
	var out *outcome
	var err error
	if w.tcp {
		out, err = inferTCP(in, cfg)
	} else {
		var d *examl.Dataset
		if d, err = examl.LoadPhylip(bytes.NewReader(in.phylip), in.partitions); err != nil {
			return nil, err
		}
		if w.campaign != nil {
			out, err = w.runCampaign(in, &examl.LocalCampaignRunner{Dataset: d, Config: cfg})
		} else if res, ierr := examl.Infer(d, cfg); ierr != nil {
			err = ierr
		} else {
			out = outcomeOf(res)
		}
	}
	if err != nil {
		return nil, err
	}
	out.wall = time.Since(start)
	return out, nil
}

func outcomeOf(res *examl.Result) *outcome {
	return &outcome{tree: res.Tree, lnL: res.LogLikelihood, iterations: res.Iterations, comm: res.Comm}
}

// freeLoopbackAddr reserves a currently free loopback port for rank 0.
func freeLoopbackAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// nonce distinguishes the TCP worlds of successive ops in one process.
var nonce uint64

// inferTCP runs one goroutine per rank, each parsing its own copy of the
// input and calling examl.InferNet, like the OS processes of a real
// -net-launch run, and requires the ranks to agree bit for bit.
func inferTCP(in *input, cfg examl.Config) (*outcome, error) {
	addr, err := freeLoopbackAddr()
	if err != nil {
		return nil, err
	}
	nonce++
	results := make([]*examl.NetResult, cfg.Ranks)
	errs := make([]error, cfg.Ranks)
	var wg sync.WaitGroup
	for r := 0; r < cfg.Ranks; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			d, err := examl.LoadPhylip(bytes.NewReader(in.phylip), in.partitions)
			if err != nil {
				errs[rank] = err
				return
			}
			results[rank], errs[rank] = examl.InferNet(d, cfg, examl.NetConfig{Rank: rank, Size: cfg.Ranks, Addr: addr, Nonce: nonce})
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("rank %d: %w", r, err)
		}
	}
	out := outcomeOf(results[0].Result)
	for r := 1; r < cfg.Ranks; r++ {
		if res := results[r].Result; res != nil && !sameResult(out, outcomeOf(res)) {
			return nil, fmt.Errorf("rank %d disagrees with rank 0", r)
		}
	}
	return out, nil
}

// runCampaign runs the workload's campaign over the given task runner.
func (w *workload) runCampaign(in *input, runner phyrun.Runner) (*outcome, error) {
	c := w.campaign
	res, err := phyrun.Run(context.Background(), phyrun.Config{
		Plan: phyrun.Plan{
			Seed:            in.searchSeed,
			RandomStarts:    c.randomStarts,
			ParsimonyStarts: c.parsimonyStarts,
			Replicates:      c.replicates,
		},
		Runner:  runner,
		Workers: c.workers,
	})
	if err != nil {
		return nil, err
	}
	return &outcome{
		tree:       res.BestTree,
		lnL:        res.BestLogLikelihood,
		iterations: res.Starts[res.BestStart].Iterations,
		tasksDone:  len(res.Starts) + res.ReplicatesRun,
		supports:   len(res.Supports),
	}, nil
}

func sameResult(a, b *outcome) bool {
	return math.Float64bits(a.lnL) == math.Float64bits(b.lnL) && a.tree == b.tree
}

// grossSlack is the share of the reference likelihood below which an op's
// final likelihood is wrong whatever the dataset: several times the widest
// shortfall any correct op has shown (README, "Output checks").
const grossSlack = 0.05

// check applies the output checks of one op; a non-nil error makes it a
// failed op that contributes no timing. Only what holds for every correct
// op on every dataset is checked here. How close the search got to the
// generating tree is a statistic with a long tail over datasets, and
// checkRun holds it to account over the run's ops together.
func (w *workload) check(in *input, out *outcome) error {
	if math.IsNaN(out.lnL) || math.IsInf(out.lnL, 0) {
		return fmt.Errorf("final lnL %v", out.lnL)
	}
	if floor := in.refLnL - grossSlack*math.Abs(in.refLnL); out.lnL < floor {
		return fmt.Errorf("final lnL %.4f below reference %.4f by more than %g of it", out.lnL, in.refLnL, grossSlack)
	}
	// A tree that does not parse, or is over other taxa, is an error here.
	var err error
	if out.rfTrue, err = examl.RobinsonFoulds(out.tree, in.trueTree); err != nil {
		return fmt.Errorf("Robinson-Foulds: %w", err)
	}
	if c := w.campaign; c != nil {
		if out.tasksDone != c.tasks() {
			return fmt.Errorf("campaign finished %d of %d tasks", out.tasksDone, c.tasks())
		}
		if out.supports != w.taxa-3 {
			return fmt.Errorf("support vector has %d entries, tree has %d inner splits", out.supports, w.taxa-3)
		}
	}
	return nil
}

// checkRun applies the accuracy checks to a run's passed ops together: the
// median final likelihood may fall short of the reference by lnlSlack of it,
// and the mean Robinson-Foulds distance to the generating tree may reach
// n - 3, half the maximum. rels are lnL / reference, so 1 + the shortfall.
func (w *workload) checkRun(rels, rfs []float64) error {
	if m := median(rels); m > 1+w.lnlSlack {
		return fmt.Errorf("median final lnL falls short of the reference by %.3g of it, more than %g", m-1, w.lnlSlack)
	}
	sum := 0.0
	for _, rf := range rfs {
		sum += rf
	}
	if mean := sum / float64(len(rfs)); mean > float64(w.taxa-3) {
		return fmt.Errorf("mean Robinson-Foulds distance to the generating tree %.1f > %d", mean, w.taxa-3)
	}
	return nil
}
