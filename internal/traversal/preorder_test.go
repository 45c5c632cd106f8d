package traversal

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/tree"
)

// realGradPlans hands f the gradient plan of a 5- and a 24-taxon random
// tree, joint and with three branch-length classes, each without and
// with an edge mask.
func realGradPlans(f func(nTaxa, classes int, p *GradPlan)) {
	for _, n := range []int{5, 24} {
		for _, classes := range []int{1, 3} {
			rng := rand.New(rand.NewSource(int64(n + classes)))
			tr := tree.NewRandom(taxa(n), classes, rng)
			for _, masked := range []bool{false, true} {
				plan, _ := BuildGradient(tr, nil)
				if masked {
					plan.Active = make([]bool, plan.NBranches())
					for b := range plan.Active {
						plan.Active[b] = rng.Intn(2) == 0
					}
				}
				f(n, classes, plan)
			}
		}
	}
}

// TestGradPlanEncodeDecodeRoundTrip pins the gradient-plan wire format:
// decoding an encoded plan must reproduce it exactly (structure shared
// across classes, per-class branch lengths bit-preserved), and the
// encoded frame must be exactly WireSize bytes — the figure the
// single-rank fork-join master meters without encoding.
func TestGradPlanEncodeDecodeRoundTrip(t *testing.T) {
	realGradPlans(func(n, classes int, plan *GradPlan) {
		buf := plan.Encode()
		if len(buf) != plan.WireSize() {
			t.Errorf("%d taxa, classes=%d: encoded %d bytes, WireSize says %d", n, classes, len(buf), plan.WireSize())
		}
		got, err := DecodeGradPlan(buf)
		if err != nil {
			t.Fatalf("%d taxa, classes=%d: decode: %v", n, classes, err)
		}
		if !reflect.DeepEqual(got, plan) {
			t.Errorf("%d taxa, classes=%d, masked=%v: decoded plan differs from original", n, classes, plan.Active != nil)
		}
	})
}

// TestGradPlanDecodeRejectsCorruption pins that truncated or padded
// frames fail loudly instead of yielding a silently wrong plan.
func TestGradPlanDecodeRejectsCorruption(t *testing.T) {
	tr := tree.NewRandom(taxa(10), 1, rand.New(rand.NewSource(4)))
	plan, _ := BuildGradient(tr, nil)
	buf := plan.Encode()

	if _, err := DecodeGradPlan(buf[:len(buf)-3]); err == nil {
		t.Error("truncated frame decoded without error")
	}
	if _, err := DecodeGradPlan(append(append([]byte(nil), buf...), 0)); err == nil {
		t.Error("padded frame decoded without error")
	}
}

// TestGradPlanDecodeSizesNothingFromABareHeader: a 13-byte frame whose
// header claims the largest counts the decoder tolerates is refused
// before anything is allocated for them (it used to cost about 1 GB).
func TestGradPlanDecodeSizesNothingFromABareHeader(t *testing.T) {
	var frame [13]byte
	binary.LittleEndian.PutUint32(frame[0:], 1<<20)
	binary.LittleEndian.PutUint32(frame[4:], 1<<24)
	binary.LittleEndian.PutUint32(frame[8:], 1<<24)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodeGradPlan(frame[:])
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a bare header claiming 2^24 steps decoded without error")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("refusing the frame allocated %d bytes", got)
	}
}

// TestGradPlanValidateBoundsEverySlot: a real plan fits its own tree and
// class count and no other; every slot index and every per-class size is
// held to the tree.
func TestGradPlanValidateBoundsEverySlot(t *testing.T) {
	realGradPlans(func(n, classes int, p *GradPlan) {
		if err := p.Validate(n, classes); err != nil {
			t.Fatal(err)
		}
		if err := p.Validate(n-1, classes); err == nil {
			t.Errorf("%d-taxon plan accepted for a smaller tree", n)
		}
		if err := p.Validate(n, classes+1); err == nil {
			t.Errorf("%d-class plan accepted for %d classes", classes, classes+1)
		}
		last := len(p.Pre[0]) - 1
		for what, field := range map[string]*int32{
			"step dst": &p.Pre[0][last].Dst.Idx,
			"step A":   &p.Pre[0][last].A.Idx,
			"step B":   &p.Pre[0][0].B.Idx,
			"edge P":   &p.Edges[0].P.Idx,
			"edge Q":   &p.Edges[len(p.Edges)-1].Q.Idx,
		} {
			for _, v := range []int32{-1, int32(2*n - 2), 1 << 30} {
				saved := *field
				*field = v
				if err := p.Validate(n, classes); err == nil {
					t.Errorf("%s = %d accepted on a %d-taxon tree", what, v, n)
				}
				*field = saved
			}
		}
		p.Edges[0].P.Kind = 7
		if err := p.Validate(n, classes); err == nil {
			t.Error("operand kind 7 accepted")
		}
		p.Edges[0].P.Kind = 0
		short := p.T[classes-1]
		p.T[classes-1] = short[:len(short)-1]
		if err := p.Validate(n, classes); err == nil {
			t.Error("a class with a length missing accepted")
		}
		p.T[classes-1] = short
	})
}

// FuzzDecodeGradPlan: the decoder reads bytes a master sent. Whatever
// they are, it returns an error or a plan that survives its own encoding
// — it never panics and never sizes anything from a header the frame's
// length does not back — and Validate then answers for any tree size
// without panicking either.
func FuzzDecodeGradPlan(f *testing.F) {
	realGradPlans(func(_, _ int, p *GradPlan) { f.Add(p.Encode()) })
	f.Add([]byte{})
	f.Add(make([]byte, 13))
	f.Add([]byte{0, 0, 16, 0, 0, 0, 0, 1, 0, 0, 0, 1, 3})
	f.Fuzz(func(t *testing.T, buf []byte) {
		p, err := DecodeGradPlan(buf)
		if err != nil {
			return
		}
		enc := p.Encode()
		again, err := DecodeGradPlan(enc)
		if err != nil {
			t.Fatalf("a decoded plan's own encoding does not decode: %v", err)
		}
		if !bytes.Equal(again.Encode(), enc) {
			t.Fatal("decode and encode are not inverse on a decoded plan")
		}
		_ = p.Validate(5, len(p.T))
		_ = p.Validate(24, 3)
	})
}
