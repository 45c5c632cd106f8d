package examl

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strconv"
	"sync"
	"testing"

	"repro/internal/msa"
	"repro/internal/seqgen"
)

// The golden-trajectory net (ROADMAP 3a): small fixed-seed inferences
// whose per-iteration lnL bit patterns, final lnL bits, and final Newick
// digest are checked in. A change that promises "same bits, less work"
// is proven against this file instead of against a retained copy of the
// code it replaced. The file is regenerated only by a change that means
// to move a trajectory: EXAML_UPDATE_GOLDEN=1 go test -run Golden .
const goldenPath = "testdata/golden_trajectories.json"

type goldenRecord struct {
	Name string `json:"name"`
	// LnLBits is the final log likelihood as a Float64bits hex string.
	LnLBits string `json:"lnl_bits"`
	// TreeSHA256 is the digest of the final Newick string.
	TreeSHA256 string `json:"tree_sha256"`
	// IterLnLBits holds the lnL bits reported after every outer
	// search iteration.
	IterLnLBits []string `json:"iter_lnl_bits"`
}

type goldenCase struct {
	name string
	cfg  Config
	tcp  bool
	// taxa selects the dataset (goldenDataset): 9 for the matrix.
	taxa int
	// group names the cases that must agree with each other bit for bit:
	// one model and linkage setting across schemes, thread counts and
	// transports (docs/DETERMINISM.md).
	group string
}

func goldenCases() []goldenCase {
	var cases []goldenCase
	for _, scheme := range []Scheme{Decentralized, ForkJoin} {
		for _, rm := range []RateModel{GAMMA, PSR} {
			for _, perPart := range []bool{false, true} {
				for _, threads := range []int{1, 2} {
					bl := "joint"
					if perPart {
						bl = "M"
					}
					cases = append(cases, goldenCase{
						name:  fmt.Sprintf("%v/%v/%s/T%d", scheme, rm, bl, threads),
						group: fmt.Sprintf("%v/%s", rm, bl),
						taxa:  9,
						cfg: Config{
							Scheme: scheme, RateModel: rm, PerPartitionBranchLengths: perPart,
							Threads: threads, Ranks: 2, Seed: 11, MaxIterations: 2,
						},
					})
				}
			}
		}
	}
	cases = append(cases, goldenCase{
		name:  "decentralized/GAMMA/joint/T1/tcp",
		group: "GAMMA/joint",
		cfg:   Config{Seed: 11, MaxIterations: 2},
		tcp:   true,
		taxa:  9,
	})
	// On 9 taxa no SPR candidate lies deeper than 3 edges from a prune
	// point. 24 taxa put radius-5 candidates on both sides of a merged
	// edge.
	cases = append(cases, goldenCase{
		name:  "decentralized/GAMMA/joint/T1/24taxa",
		group: "24taxa",
		cfg:   Config{Ranks: 2, Seed: 11, MaxIterations: 2},
		taxa:  24,
	})
	// Rank counts other than 2. The rank count fixes the association of
	// the cross-rank sums (docs/DETERMINISM.md), so each case is its own
	// group.
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"decentralized/GAMMA/joint/T1/ranks1", Config{Ranks: 1}},
		{"decentralized/GAMMA/joint/T1/ranks3", Config{Ranks: 3}},
		{"fork-join/PSR/M/T2/ranks3", Config{
			Scheme: ForkJoin, RateModel: PSR, PerPartitionBranchLengths: true, Threads: 2, Ranks: 3,
		}},
	} {
		c.cfg.Seed, c.cfg.MaxIterations = 11, 2
		cases = append(cases, goldenCase{name: c.name, group: c.name, cfg: c.cfg, taxa: 9})
	}
	return cases
}

// goldenDataset is nTaxa × {700, 60, 60} bp: one partition large enough
// to split into several thread blocks and to stay out of the fused
// small-partition batch, two that are batched. Every fifth character of
// the simulated alignment is overwritten with a cycling IUPAC code so
// all 15 tip states reach the kernels' tip tables.
func goldenDataset(nTaxa int) (*Dataset, error) {
	res, err := seqgen.Generate(seqgen.Config{
		NTaxa: nTaxa,
		Specs: []seqgen.Spec{
			{Name: "big", NSites: 700, Alpha: 0.6, GapProb: 0.02},
			{Name: "small0", NSites: 60, Alpha: 1.2, GapProb: 0.01},
			{Name: "small1", NSites: 60, Alpha: 0.4, GapProb: 0.01},
		},
		Seed: 77,
	})
	if err != nil {
		return nil, err
	}
	k := 0
	for _, seq := range res.Alignment.Seqs {
		for j := range seq {
			if (k+j)%5 == 0 {
				seq[j] = msa.State(1 + (k+j/5)%15)
			}
		}
		k++
	}
	d, err := msa.Compress(res.Alignment, res.Partitions)
	if err != nil {
		return nil, err
	}
	return &Dataset{d: d}, nil
}

func bitsHex(v float64) string { return fmt.Sprintf("%016x", math.Float64bits(v)) }

// parentFinalLnL is each group's final log likelihood at the commit before
// the last change that moved the group's trajectory on purpose, which the
// regenerated file is held against: a change may land a little lower
// after two iterations, it may not land somewhere else. For every group
// run on more than one rank that change is the distribution rule that
// keeps partitions whole on a rank (internal/distrib): it moved which
// patterns each rank holds, and with them the association of every
// cross-rank sum. The entries are the finals checked in just before it,
// so the guard measures that move alone. A group without an entry is
// held only to its own checked-in bits.
var parentFinalLnL = map[string]float64{
	"GAMMA/joint": -5751.5267766562965,
	"GAMMA/M":     -5735.591985050602,
	"PSR/joint":   -5211.080482084838,
	"PSR/M":       -5200.340575856168,
	"24taxa":      -15121.05848895512,

	"decentralized/GAMMA/joint/T1/ranks3": -5751.52677665646,
	"fork-join/PSR/M/T2/ranks3":           -5200.340575856189,
}

// lnLOfBits reverses bitsHex.
func lnLOfBits(t *testing.T, hex string) float64 {
	t.Helper()
	b, err := strconv.ParseUint(hex, 16, 64)
	if err != nil {
		t.Fatalf("lnL bits %q: %v", hex, err)
	}
	return math.Float64frombits(b)
}

// goldenRun executes one case and returns its record. Every rank replica
// reports each iteration; they must all report the same bits.
func goldenRun(t *testing.T, d *Dataset, c goldenCase) goldenRecord {
	t.Helper()
	var (
		mu    sync.Mutex
		iters []string
	)
	cfg := c.cfg
	cfg.OnProgress = func(iter int, lnL float64) {
		mu.Lock()
		defer mu.Unlock()
		for len(iters) < iter {
			iters = append(iters, "")
		}
		b := bitsHex(lnL)
		if iters[iter-1] != "" && iters[iter-1] != b {
			t.Errorf("%s: replicas disagree at iteration %d: %s vs %s", c.name, iter, iters[iter-1], b)
		}
		iters[iter-1] = b
	}
	var res *Result
	if c.tcp {
		const size = 2
		addr := reserveLoopbackAddr(t)
		outs := make([]*NetResult, size)
		errs := make([]error, size)
		var wg sync.WaitGroup
		for r := 0; r < size; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				outs[r], errs[r] = InferNet(d, cfg, NetConfig{Rank: r, Size: size, Addr: addr, Nonce: 4545})
			}(r)
		}
		wg.Wait()
		for r := 0; r < size; r++ {
			if errs[r] != nil {
				t.Fatalf("%s: rank %d: %v", c.name, r, errs[r])
			}
		}
		res = outs[0].Result
		if o := outs[1].Result; math.Float64bits(o.LogLikelihood) != math.Float64bits(res.LogLikelihood) || o.Tree != res.Tree {
			t.Errorf("%s: TCP ranks disagree", c.name)
		}
	} else {
		var err error
		res, err = Infer(d, cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
	}
	return goldenRecord{
		Name:        c.name,
		LnLBits:     bitsHex(res.LogLikelihood),
		TreeSHA256:  fmt.Sprintf("%x", sha256.Sum256([]byte(res.Tree))),
		IterLnLBits: iters,
	}
}

// TestGoldenTrajectories asserts every case of the matrix — both
// engines × Γ/PSR × joint/-M branch lengths × T∈{1,2}, plus one 2-rank
// loopback-TCP run, one 24-taxon run and three runs at 1 and 3 ranks —
// reproduces its checked-in
// trajectory bit for bit, and that the checked-in trajectories of one
// group are the same trajectory.
func TestGoldenTrajectories(t *testing.T) {
	datasets := map[int]*Dataset{}
	for _, n := range []int{9, 24} {
		d, err := goldenDataset(n)
		if err != nil {
			t.Fatal(err)
		}
		datasets[n] = d
	}
	cases := goldenCases()
	if os.Getenv("EXAML_UPDATE_GOLDEN") != "" {
		recs := make([]goldenRecord, len(cases))
		for i, c := range cases {
			recs[i] = goldenRun(t, datasets[c.taxa], c)
		}
		out, err := json.MarshalIndent(recs, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d cases)", goldenPath, len(recs))
		return
	}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want []goldenRecord
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(cases) {
		t.Fatalf("%s holds %d cases, the matrix has %d", goldenPath, len(want), len(cases))
	}
	first := map[string]goldenRecord{}
	var sum, parentSum float64
	for i, c := range cases {
		w := want[i]
		w.Name = ""
		if f, ok := first[c.group]; !ok {
			first[c.group] = w
		} else if fmt.Sprint(f) != fmt.Sprint(w) {
			t.Errorf("%s: golden record differs from the first of group %s", c.name, c.group)
		}
		// Quality guard on the checked-in file itself: no case ends more
		// than half a log unit below where its group ended before the
		// change parentFinalLnL names, and all of them together no more
		// than 1e-5 of the total (thirty times inside what the benchmark
		// allows neg_lnl_rel).
		parent, ok := parentFinalLnL[c.group]
		if !ok {
			continue
		}
		lnL := lnLOfBits(t, w.LnLBits)
		if lnL < parent-0.5 {
			t.Errorf("%s: golden final lnL %.4f is more than 0.5 below the %.4f it is held against", c.name, lnL, parent)
		}
		sum += lnL
		parentSum += parent
	}
	if sum < parentSum+1e-5*parentSum {
		t.Errorf("golden final lnLs sum to %.4f, the ones they are held against to %.4f: more than 1e-5 lower", sum, parentSum)
	}
	for i, c := range cases {
		c, w := c, want[i]
		t.Run(c.name, func(t *testing.T) {
			if testing.Short() && c.tcp {
				t.Skip("loopback network case")
			}
			got := goldenRun(t, datasets[c.taxa], c)
			if got.Name != w.Name {
				t.Fatalf("case order changed: file has %q here", w.Name)
			}
			if got.LnLBits != w.LnLBits {
				t.Errorf("final lnL bits %s, golden %s", got.LnLBits, w.LnLBits)
			}
			if got.TreeSHA256 != w.TreeSHA256 {
				t.Errorf("final tree digest %s, golden %s", got.TreeSHA256, w.TreeSHA256)
			}
			if fmt.Sprint(got.IterLnLBits) != fmt.Sprint(w.IterLnLBits) {
				t.Errorf("per-iteration lnL bits %v, golden %v", got.IterLnLBits, w.IterLnLBits)
			}
		})
	}
}
