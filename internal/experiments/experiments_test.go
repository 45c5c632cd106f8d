package experiments

import (
	"math"
	"strings"
	"testing"
)

func TestTable1SmallScale(t *testing.T) {
	res, err := Table1(Small())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Columns) != 4 {
		t.Fatalf("%d columns", len(res.Columns))
	}
	for _, c := range res.Columns {
		total := 0.0
		for _, s := range c.SharePercent {
			if s < 0 || s > 100 {
				t.Fatalf("%s: share %g out of range", c.Name, s)
			}
			total += s
		}
		if total < 99.5 || total > 100.5 {
			t.Fatalf("%s: shares sum to %g", c.Name, total)
		}
		if c.Regions == 0 || c.TotalBytes == 0 {
			t.Fatalf("%s: empty metering", c.Name)
		}
	}
	// The paper's qualitative claims that must hold at any scale:
	// (1) under joint branch lengths the descriptor dominates (>50%),
	gammaJoint := res.Columns[1]
	if gammaJoint.SharePercent[3] < 50 {
		t.Errorf("Γ/joint descriptor share = %.1f%%, want dominant", gammaJoint.SharePercent[3])
	}
	// (2) per-partition branch lengths shift share toward branch traffic.
	gammaPer := res.Columns[0]
	if gammaPer.SharePercent[0] <= gammaJoint.SharePercent[0] {
		t.Errorf("per-partition branch share %.1f%% not above joint %.1f%%",
			gammaPer.SharePercent[0], gammaJoint.SharePercent[0])
	}
	// (3) per-partition runs trigger more regions than joint runs.
	if gammaPer.Regions <= gammaJoint.Regions {
		t.Errorf("per-partition regions %d not above joint %d", gammaPer.Regions, gammaJoint.Regions)
	}
	if !strings.Contains(res.Render(), "traversal descriptor") {
		t.Error("render incomplete")
	}
}

func TestFig3SmallScale(t *testing.T) {
	res, err := Fig3(Small())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Gamma) != 6 || len(res.PSR) != 6 {
		t.Fatalf("points: %d gamma, %d psr", len(res.Gamma), len(res.PSR))
	}
	// Speedup must grow with nodes for both models.
	for _, series := range [][]Fig3Point{res.Gamma, res.PSR} {
		for i := 1; i < len(series); i++ {
			if series[i].Speedup < series[i-1].Speedup*0.95 {
				t.Fatalf("speedup not monotone at %d nodes: %v", series[i].Nodes, series[i].Speedup)
			}
		}
		if series[len(series)-1].Speedup < 4 {
			t.Fatalf("32-node speedup only %.1fx", series[len(series)-1].Speedup)
		}
	}
	// Γ at paper scale must swap on 1 node (238 GB CLV vs 128 GB RAM)
	// and not at 4+ nodes; PSR must never swap (4× smaller).
	if !res.Gamma[0].Swapping {
		t.Error("Γ on 1 node should swap at paper scale")
	}
	if res.Gamma[2].Swapping {
		t.Error("Γ on 4 nodes should not swap")
	}
	for _, p := range res.PSR {
		if p.Swapping {
			t.Errorf("PSR swapping at %d nodes", p.Nodes)
		}
	}
	// Γ speedup 1→4 nodes should be super-linear (swap relief), the
	// paper's artifact.
	if res.Gamma[2].Speedup < 4 {
		t.Errorf("Γ 4-node speedup %.2fx, expected super-linear (>4x)", res.Gamma[2].Speedup)
	}
	// ExaML ≤ RAxML-Light at every node count.
	for _, p := range res.Gamma {
		if p.ForkJoinSeconds < p.Seconds*0.999 {
			t.Errorf("fork-join faster than decentral at %d nodes", p.Nodes)
		}
	}
	if res.Gamma32Ratio < 1 {
		t.Errorf("Γ@32 ratio %.2f < 1", res.Gamma32Ratio)
	}
	if !strings.Contains(res.Render(), "Figure 3") {
		t.Error("render incomplete")
	}
}

func TestFig4SmallScale(t *testing.T) {
	sc := Small()
	res, err := Fig4(sc, false)
	if err != nil {
		t.Fatal(err)
	}
	wantPoints := 2 * len(sc.PartCounts)
	if len(res.Points) != wantPoints {
		t.Fatalf("%d points, want %d", len(res.Points), wantPoints)
	}
	// The claims that must hold at any scale: ExaML is never slower, it
	// always moves fewer bytes, and fork-join's traffic volume grows
	// faster with the partition count than ExaML's (the bandwidth-bound
	// region-startup effect of §III-A). The *time* ratio only takes off
	// in the paper's ≥500-partition regime, which the Default/Paper
	// scales cover.
	var byteRatios []float64
	for _, p := range res.Points {
		if !p.PSR {
			byteRatios = append(byteRatios, float64(p.RAxMLLightBytes)/float64(p.ExaMLBytes))
		}
		if p.SpeedupRatio < 0.9 {
			t.Errorf("p=%d psr=%v: ExaML slower than fork-join (%.2fx)", p.Partitions, p.PSR, p.SpeedupRatio)
		}
		if p.ExaMLBytes >= p.RAxMLLightBytes {
			t.Errorf("p=%d psr=%v: ExaML bytes %d not below fork-join %d",
				p.Partitions, p.PSR, p.ExaMLBytes, p.RAxMLLightBytes)
		}
	}
	if byteRatios[len(byteRatios)-1] <= byteRatios[0] {
		t.Errorf("fork-join/ExaML byte ratio did not grow with partitions: %v", byteRatios)
	}
	if !strings.Contains(res.Render(), "Figure 4(a)") {
		t.Error("render incomplete")
	}
}

func TestFig4PerPartitionSmallScale(t *testing.T) {
	res, err := Fig4(Small(), true)
	if err != nil {
		t.Fatal(err)
	}
	if !res.PerPartition {
		t.Fatal("flag lost")
	}
	for _, p := range res.Points {
		if p.ExaMLBytes >= p.RAxMLLightBytes {
			t.Errorf("-M p=%d psr=%v: ExaML bytes not below fork-join", p.Partitions, p.PSR)
		}
	}
	if !strings.Contains(res.Render(), "Figure 4(b)") {
		t.Error("render incomplete")
	}
}

// TestTable1CountsArePinned holds the metered traffic of Table I at the
// small scale to fixed counts: for each of the four configurations the
// regions, the bytes of the four likelihood classes and each class's
// share of them, by bits. The run driver freezes the meter before its
// epilogue and the fork-join master puts every frame on the wire through
// one path; neither may move a byte.
func TestTable1CountsArePinned(t *testing.T) {
	res, err := Table1(Small())
	if err != nil {
		t.Fatal(err)
	}
	type counts struct {
		Regions, TotalBytes int64
		Shares              [4]uint64
	}
	want := []counts{
		{279, 382153, [4]uint64{0x40400080f62d13aa, 0x400b1041ed827db1, 0x400c9ab022f3bde0, 0x404e84cfe8cb889d}},
		{237, 196570, [4]uint64{0x403d026f742e6a4c, 0x401a5f4e0c87495c, 0x401bce0adc899424, 0x404cb91d28c6af2a}},
		{275, 358142, [4]uint64{0x40404e6f00b528b3, 0x400a4dfd8cb6d2b3, 0x400f212a514e9e37, 0x404e1a9e816a803e}},
		{216, 174651, [4]uint64{0x403cfc5dc7d7104e, 0x401a87d6f849dd15, 0x401fdcc63ced374d, 0x404c353d756d954d}},
	}
	for i, c := range res.Columns {
		got := counts{Regions: c.Regions, TotalBytes: c.TotalBytes}
		for k, s := range c.SharePercent {
			got.Shares[k] = math.Float64bits(s)
		}
		if got != want[i] {
			t.Errorf("%s: %#v, want %#v", c.Name, got, want[i])
		}
	}
}
