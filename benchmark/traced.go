package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	examl "repro"
	"repro/internal/decentral"
	"repro/internal/distrib"
	"repro/internal/forkjoin"
	"repro/internal/model"
	"repro/internal/mpi"
	"repro/internal/mpinet"
	"repro/internal/msa"
	"repro/internal/phyrun"
	"repro/internal/search"
	"repro/internal/traversal"
)

// tracedEngine times every call the search makes into the engine. The
// interface is embedded so a method added to search.Engine later passes
// through untimed instead of breaking the benchmark's build.
//
// An Evaluate whose previous engine call was SetShared is a model-parameter
// probe (new α or rates, so a full traversal); every other Evaluate scores
// an SPR trial or refreshes the tree.
type tracedEngine struct {
	search.Engine
	rec            *recorder
	afterSetShared bool
	stepsProbe     int64
	stepsTrial     int64
}

func (e *tracedEngine) call(name string) func() {
	e.afterSetShared = false
	e.rec.begin(name)
	return e.rec.end
}

func (e *tracedEngine) Evaluate(d *traversal.Descriptor) []float64 {
	name, steps := "engine.evaluate_trial", &e.stepsTrial
	if e.afterSetShared {
		name, steps = "engine.evaluate_probe", &e.stepsProbe
	}
	*steps += int64(len(d.Steps[0]))
	defer e.call(name)()
	return e.Engine.Evaluate(d)
}

func (e *tracedEngine) SetShared(params [][]float64) {
	done := e.call("engine.set_shared")
	e.Engine.SetShared(params)
	done()
	e.afterSetShared = true
}

func (e *tracedEngine) Traverse(d *traversal.Descriptor) {
	defer e.call("engine.traverse")()
	e.Engine.Traverse(d)
}

func (e *tracedEngine) PrepareBranch(d *traversal.Descriptor) {
	defer e.call("engine.prepare_branch")()
	e.Engine.PrepareBranch(d)
}

func (e *tracedEngine) BranchDerivatives(ts []float64) (d1, d2 []float64) {
	defer e.call("engine.branch_derivs")()
	return e.Engine.BranchDerivatives(ts)
}

func (e *tracedEngine) AllBranchDerivatives(plan *traversal.GradPlan) []float64 {
	defer e.call("engine.all_branch_derivs")()
	return e.Engine.AllBranchDerivatives(plan)
}

func (e *tracedEngine) OptimizeSiteRates(d *traversal.Descriptor) []float64 {
	defer e.call("engine.site_rates")()
	return e.Engine.OptimizeSiteRates(d)
}

// tracedTransport times the point-to-point calls under the collectives.
// Recv is wire time plus waiting for the peer to get there.
type tracedTransport struct {
	mpi.Transport
	rec *recorder
}

func (t *tracedTransport) Send(to int, m mpi.Message) error {
	t.rec.begin("transport.send")
	defer t.rec.end()
	return t.Transport.Send(to, m)
}

func (t *tracedTransport) Recv(from int) (mpi.Message, error) {
	t.rec.begin("transport.recv")
	defer t.rec.end()
	return t.Transport.Recv(from)
}

// tracedRunner times campaign tasks by kind. Tasks of different workers
// overlap, so they are kept as durations, not as spans under one parent.
type tracedRunner struct {
	phyrun.Runner
	mu     sync.Mutex
	byKind map[phyrun.TaskKind][]time.Duration
}

func (r *tracedRunner) Run(ctx context.Context, task phyrun.Task) (*phyrun.TaskResult, error) {
	start := time.Now()
	res, err := r.Runner.Run(ctx, task)
	d := time.Since(start)
	r.mu.Lock()
	r.byKind[task.Kind] = append(r.byKind[task.Kind], d)
	r.mu.Unlock()
	return res, err
}

// trace is what one traced op yields besides its outcome.
type trace struct {
	recs []*recorder // one per rank; recs[0] is the rank whose spans sum to wall

	patterns   int
	imbalance  float64 // max / mean rank load
	stepsProbe int64
	stepsTrial int64
	liveHeap   uint64 // max HeapAlloc after a forced GC at an iteration boundary

	tasks map[phyrun.TaskKind][]time.Duration // campaign only
}

func hetOf(cfg examl.Config) model.Heterogeneity {
	if cfg.RateModel == examl.PSR {
		return model.PSR
	}
	return model.Gamma
}

// assignRanks is the cyclic data distribution both engines' drivers use.
func assignRanks(d *msa.Dataset, ranks int) (*distrib.Assignment, error) {
	counts := make([]int, d.NPartitions())
	for i, p := range d.Parts {
		counts[i] = p.NPatterns()
	}
	return distrib.Compute(distrib.Cyclic, counts, ranks)
}

// loadTraced is examl.LoadPhylip with a span around each layer call.
func loadTraced(in *input, rec *recorder) (*msa.Dataset, error) {
	rec.begin("msa.parse")
	a, err := msa.ParsePhylip(bytes.NewReader(in.phylip))
	rec.end()
	if err != nil {
		return nil, err
	}
	rec.begin("msa.compress")
	defer rec.end()
	var parts []msa.Partition
	if strings.TrimSpace(in.partitions) != "" {
		if parts, err = msa.ParsePartitionFile(in.partitions, a.NSites()); err != nil {
			return nil, err
		}
	}
	return msa.Compress(a, parts)
}

// inferTraced is the same computation as infer, rebuilt from the layers'
// public constructors so that every call across a layer boundary can be
// timed from outside. The caller proves "the same computation" by
// comparing likelihood bits and Newick with the untraced op.
func (w *workload) inferTraced(in *input, cfg examl.Config) (*outcome, *trace, error) {
	if w.campaign != nil {
		return w.campaignTraced(in, cfg)
	}
	het := hetOf(cfg)
	tr := &trace{recs: make([]*recorder, cfg.Ranks)}
	epoch := time.Now()
	for r := range tr.recs {
		tr.recs[r] = &recorder{rank: r, epoch: epoch}
	}
	results := make([]*search.Result, cfg.Ranks)
	errs := make([]error, cfg.Ranks)

	// rank is one rank's life from a communicator to a search result.
	rank := func(c *mpi.Comm, d *msa.Dataset) (*search.Result, error) {
		rec := tr.recs[c.Rank()]
		rec.begin("distrib.compute")
		assign, err := assignRanks(d, c.Size())
		rec.end()
		if err != nil {
			return nil, err
		}
		if c.Rank() == 0 {
			tr.patterns = d.TotalPatterns()
			max, mean := assign.Balance()
			tr.imbalance = float64(max) / mean
		}

		var eng search.Engine
		if cfg.Scheme == examl.ForkJoin {
			ec := forkjoin.EngineConfig{Het: het, PerPartitionBranches: cfg.PerPartitionBranchLengths, Threads: cfg.Threads}
			if c.Rank() != 0 {
				rec.begin("forkjoin.worker")
				defer rec.end()
				return nil, forkjoin.RunWorker(c, d, assign, ec)
			}
			rec.begin("engine.new")
			eng, err = forkjoin.NewMaster(c, d, assign, ec)
			rec.end()
		} else {
			rec.begin("engine.new")
			eng, err = decentral.NewEngine(c, d, assign, decentral.EngineConfig{
				Het: het, PerPartitionBranches: cfg.PerPartitionBranchLengths, Threads: cfg.Threads,
			})
			rec.end()
		}
		if err != nil {
			return nil, err
		}
		te := &tracedEngine{Engine: eng, rec: rec}
		defer func() {
			rec.begin("engine.close")
			eng.Close()
			rec.end()
			if c.Rank() == 0 {
				tr.stepsProbe, tr.stepsTrial = te.stepsProbe, te.stepsTrial
			}
		}()

		scfg := search.Config{
			Het:                  het,
			PerPartitionBranches: cfg.PerPartitionBranchLengths,
			MaxIterations:        cfg.MaxIterations,
			Seed:                 cfg.Seed,
			ParsimonyStart:       cfg.ParsimonyStartTree,
		}
		if c.Rank() == 0 {
			scfg.OnIteration = func(*search.Searcher, int, float64) {
				rec.begin("mem.sample")
				runtime.GC()
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				if ms.HeapAlloc > tr.liveHeap {
					tr.liveHeap = ms.HeapAlloc
				}
				rec.end()
			}
		}
		rec.begin("search.new")
		s, err := search.NewSearcher(te, d, scfg)
		rec.end()
		if err != nil {
			return nil, err
		}
		rec.begin("search.run")
		defer rec.end()
		return s.Run()
	}

	tr.recs[0].begin("run")
	if w.tcp {
		addr, err := freeLoopbackAddr()
		if err != nil {
			return nil, nil, err
		}
		nonce++
		var wg sync.WaitGroup
		for r := 0; r < cfg.Ranks; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				rec := tr.recs[r]
				if r != 0 {
					rec.begin("run")
					defer rec.end()
				}
				// A lost peer surfaces as a *mpi.CommError panic inside a
				// collective; report it as this op's failure.
				defer func() {
					if p := recover(); p != nil {
						errs[r] = fmt.Errorf("rank %d: %v", r, p)
					}
				}()
				d, err := loadTraced(in, rec)
				if err != nil {
					errs[r] = err
					return
				}
				rec.begin("mpinet.connect")
				t, err := mpinet.Connect(mpinet.Config{Rank: r, Size: cfg.Ranks, Addr: addr, Nonce: nonce})
				rec.end()
				if err != nil {
					errs[r] = err
					return
				}
				c := mpi.NewComm(&tracedTransport{Transport: t, rec: rec}, r, cfg.Ranks, mpi.NewMeter())
				defer c.Close()
				results[r], errs[r] = rank(c, d)
			}(r)
		}
		wg.Wait()
	} else {
		d, err := loadTraced(in, tr.recs[0])
		if err != nil {
			return nil, nil, err
		}
		mpi.NewWorld(cfg.Ranks).Run(func(c *mpi.Comm) {
			r := c.Rank()
			if r != 0 {
				tr.recs[r].begin("run")
				defer tr.recs[r].end()
			}
			results[r], errs[r] = rank(c, d)
		})
	}
	for r, err := range errs {
		if err != nil {
			return nil, nil, fmt.Errorf("traced rank %d: %w", r, err)
		}
	}
	tr.recs[0].begin("tree.newick")
	out := &outcome{tree: results[0].Tree.Newick(), lnL: results[0].LnL, iterations: results[0].Iterations}
	tr.recs[0].end()
	tr.recs[0].end()
	out.wall = time.Duration(tr.recs[0].spans[0].End - tr.recs[0].spans[0].Start)

	for r := 1; r < cfg.Ranks; r++ {
		if res := results[r]; res != nil && !sameResult(out, &outcome{tree: res.Tree.Newick(), lnL: res.LnL}) {
			return nil, nil, fmt.Errorf("traced rank %d disagrees with rank 0", r)
		}
	}
	return out, tr, nil
}

// campaignTraced runs the campaign with the runner decorated. The dataset
// type is opaque outside package examl, so parse and compress show as one
// msa.load span here.
func (w *workload) campaignTraced(in *input, cfg examl.Config) (*outcome, *trace, error) {
	rec := &recorder{epoch: time.Now()}
	runner := &tracedRunner{byKind: make(map[phyrun.TaskKind][]time.Duration)}
	rec.begin("run")
	rec.begin("msa.load")
	d, err := examl.LoadPhylip(bytes.NewReader(in.phylip), in.partitions)
	rec.end()
	if err != nil {
		return nil, nil, err
	}
	runner.Runner = &examl.LocalCampaignRunner{Dataset: d, Config: cfg}
	rec.begin("phyrun.run")
	out, err := w.runCampaign(in, runner)
	rec.end()
	rec.end()
	if err != nil {
		return nil, nil, err
	}
	out.wall = time.Duration(rec.spans[0].End - rec.spans[0].Start)
	return out, &trace{recs: []*recorder{rec}, patterns: d.Patterns(), tasks: runner.byKind}, nil
}
