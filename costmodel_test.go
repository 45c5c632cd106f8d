package examl

import (
	"fmt"
	"math"
	"sync"
	"testing"
)

// costInputs is what the cluster cost model reads of a run and what it
// projects from it, every float as its bits.
type costInputs struct {
	TotalColumns, MaxRankColumns int64
	CLVBytesTotal                uint64
	At48, At480                  projectionBits
}

// projectionBits is a Projection with every float as its bits.
type projectionBits struct {
	Nodes                  int
	Seconds, Compute, Comm uint64
	Swapping               bool
}

func costInputsOf(t *testing.T, r *Result) costInputs {
	t.Helper()
	at := func(ranks int) projectionBits {
		p, err := r.Project(ranks)
		if err != nil {
			t.Fatal(err)
		}
		return projectionBits{p.Nodes, math.Float64bits(p.Seconds), math.Float64bits(p.ComputeSeconds),
			math.Float64bits(p.CommSeconds), p.Swapping}
	}
	return costInputs{
		TotalColumns:   r.trace.TotalColumns,
		MaxRankColumns: r.trace.MaxRankColumns,
		CLVBytesTotal:  math.Float64bits(r.trace.CLVBytesTotal),
		At48:           at(48),
		At480:          at(480),
	}
}

// TestCostModelInputsArePinned holds the cost model's inputs — the
// kernels' column counts, the CLV footprint — and the projections made
// from them to fixed bits, for 3-rank in-process runs of both schemes and
// a 2-rank loopback TCP run. They are counted and agreed on far from the
// search (the kernels, the run driver's epilogue), where no trajectory
// test looks: a kernel that stops counting its columns, or an epilogue
// that adds rank 0's meter twice, fails here. The counts follow the
// search, so a change meant to move a trajectory moves them too; re-record
// them then, as the golden trajectories are.
func TestCostModelInputsArePinned(t *testing.T) {
	d, err := Simulate(10, 4, 60, 33)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		cfg  Config
		tcp  bool
		want costInputs
	}{
		{"decentral-gamma-3", Config{Scheme: Decentralized, Ranks: 3, Seed: 5, MaxIterations: 2}, false, costInputs{TotalColumns: 2751992, MaxRankColumns: 941100, CLVBytesTotal: 0x4111880000000000,
			At48:  projectionBits{Nodes: 1, Seconds: 0x3f83bd970b0527ef, Compute: 0x3f63461309c7ffdf, Comm: 0x3f7dd82491264fee},
			At480: projectionBits{Nodes: 10, Seconds: 0x3f86dd75804e88bf, Compute: 0x3f2ed684dc7332ff, Comm: 0x3f86621b6cdcbbf3}}},
		{"forkjoin-psr-M-3", Config{Scheme: ForkJoin, Ranks: 3, RateModel: PSR, PerPartitionBranchLengths: true, Seed: 5, MaxIterations: 2}, false, costInputs{TotalColumns: 1192913, MaxRankColumns: 400464, CLVBytesTotal: 0x40f1880000000000,
			At48:  projectionBits{Nodes: 1, Seconds: 0x3fa3e3d10ba5ef76, Compute: 0x3f50672b5d50e8fc, Comm: 0x3fa36097b0bb682e},
			At480: projectionBits{Nodes: 10, Seconds: 0x3fad1e02defd5cff, Compute: 0x3f1a3eabc88174c6, Comm: 0x3fad10e389191c45}}},
		{"decentral-psr-tcp-2", Config{Scheme: Decentralized, Ranks: 2, RateModel: PSR, Seed: 5, MaxIterations: 2}, true, costInputs{TotalColumns: 825547, MaxRankColumns: 435458, CLVBytesTotal: 0x40f1880000000000,
			At48:  projectionBits{Nodes: 1, Seconds: 0x3f7eb8b7512831f7, Compute: 0x3f47c824e401b95a, Comm: 0x3f7bbfb2b4a7facc},
			At480: projectionBits{Nodes: 10, Seconds: 0x3f84f5d30f51320e, Compute: 0x3f130683e99afaaf, Comm: 0x3f84cfc6077dfc19}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var got costInputs
			if !tc.tcp {
				res, err := Infer(d, tc.cfg)
				if err != nil {
					t.Fatal(err)
				}
				got = costInputsOf(t, res)
			} else {
				addr := reserveLoopbackAddr(t)
				outs := make([]*NetResult, tc.cfg.Ranks)
				errs := make([]error, tc.cfg.Ranks)
				var wg sync.WaitGroup
				for r := range outs {
					wg.Add(1)
					go func(r int) {
						defer wg.Done()
						outs[r], errs[r] = InferNet(d, tc.cfg, NetConfig{Rank: r, Size: tc.cfg.Ranks, Addr: addr, Nonce: 4848})
					}(r)
				}
				wg.Wait()
				for r, err := range errs {
					if err != nil {
						t.Fatalf("rank %d: %v", r, err)
					}
				}
				got = costInputsOf(t, outs[0].Result)
				for r, o := range outs[1:] {
					if other := costInputsOf(t, o.Result); other != got {
						t.Errorf("rank %d reads %+v, rank 0 %+v", r+1, other, got)
					}
				}
			}
			if got != tc.want {
				t.Errorf("cost model inputs\n got %s\nwant %+v", fmt.Sprintf("%#v", got), tc.want)
			}
		})
	}
}
