package main

import (
	"fmt"
	"sync"
	"time"

	examl "repro"
	"repro/internal/decentral"
	"repro/internal/model"
	"repro/internal/mpi"
	"repro/internal/mpinet"
	"repro/internal/search"
	"repro/internal/traversal"
)

// probeSamples is the number of timed samples behind each probe's median.
const probeSamples = 25

// sample returns the median over probeSamples samples of the time one
// call of f takes, each sample the mean over batch back-to-back calls.
func sample(batch int, f func()) time.Duration {
	f() // warm-up
	v := make([]float64, probeSamples)
	for i := range v {
		start := time.Now()
		for j := 0; j < batch; j++ {
			f()
		}
		v[i] = float64(time.Since(start)) / float64(batch)
	}
	return time.Duration(median(v))
}

// probes times single layers directly on one op's dataset and start tree:
// one rank, no search, no cross-rank traffic in the kernel probes. They
// explain the whole-run numbers (kernel.* against engine.*_s on the sites
// workloads, *.allreduce_*_us × mpi.collectives against transport.recv_s);
// they are never evidence by themselves.
func (w *workload) probes(in *input, cfg examl.Config, m map[string]float64) error {
	d, err := loadTraced(in, &recorder{epoch: time.Now()}) // spans unused
	if err != nil {
		return err
	}
	assign, err := assignRanks(d, 1)
	if err != nil {
		return err
	}
	het := hetOf(cfg)
	eng, err := decentral.NewEngine(mpi.NewWorld(1).Comm(0), d, assign, decentral.EngineConfig{
		Het: het, PerPartitionBranches: cfg.PerPartitionBranchLengths, Threads: cfg.Threads,
	})
	if err != nil {
		return err
	}
	defer eng.Close()
	s, err := search.NewSearcher(eng, d, search.Config{
		Het: het, PerPartitionBranches: cfg.PerPartitionBranchLengths, Seed: cfg.Seed, ParsimonyStart: true,
	})
	if err != nil {
		return err
	}
	shared := make([][]float64, d.NPartitions())
	for i, p := range d.Parts {
		par, err := model.NewParams(het, p.Freqs, 0)
		if err != nil {
			return err
		}
		shared[i] = par.EncodeShared()
	}
	eng.SetShared(shared)

	t := s.Tree
	m["traversal.build_us"] = us(sample(50, func() { traversal.Build(t, t.Tip(0), true) }))
	m["traversal.build_gradient_us"] = us(sample(50, func() { traversal.BuildGradient(t, nil) }))
	full := traversal.Build(t, t.Tip(0), true)
	m["kernel.eval_full_ms"] = ms(sample(1, func() { eng.Evaluate(full) }))
	plan, _ := traversal.BuildGradient(t, nil)
	m["kernel.gradient_ms"] = ms(sample(1, func() { eng.AllBranchDerivatives(plan) }))

	width := d.NPartitions()
	world := mpi.NewWorld(2)
	chanUs, err := allreduceProbe(width, func(rank int) (*mpi.Comm, error) { return world.Comm(rank), nil })
	if err != nil {
		return err
	}
	m["mpi.allreduce_chan_us"] = chanUs
	addr, err := freeLoopbackAddr()
	if err != nil {
		return err
	}
	nonce++
	tcpUs, err := allreduceProbe(width, func(rank int) (*mpi.Comm, error) {
		tr, err := mpinet.Connect(mpinet.Config{Rank: rank, Size: 2, Addr: addr, Nonce: nonce})
		if err != nil {
			return nil, err
		}
		return mpi.NewComm(tr, rank, 2, mpi.NewMeter()), nil
	})
	if err != nil {
		return err
	}
	m["mpinet.allreduce_tcp_us"] = tcpUs
	return nil
}

// allreduceProbe times Comm.Allreduce of width doubles between two ranks:
// 200 warm-up calls, then probeSamples batches of 80 (2 000 calls). connect
// returns the rank's communicator.
func allreduceProbe(width int, connect func(rank int) (*mpi.Comm, error)) (float64, error) {
	var perCall time.Duration
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					errs[r] = fmt.Errorf("allreduce probe rank %d: %v", r, p)
				}
			}()
			c, err := connect(r)
			if err != nil {
				errs[r] = err
				return
			}
			defer c.Close()
			buf := make([]float64, width)
			call := func() { c.Allreduce(buf, mpi.OpSum, mpi.ClassLikelihoodEval) }
			for i := 0; i < 200; i++ {
				call()
			}
			if d := sample(80, call); r == 0 {
				perCall = d
			}
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return us(perCall), nil
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }
func ms(d time.Duration) float64 { return float64(d) / 1e6 }
