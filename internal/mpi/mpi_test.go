package mpi

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

func TestBcastAllSizesAllRoots(t *testing.T) {
	for _, size := range []int{1, 2, 3, 4, 5, 8, 13, 16} {
		w := NewWorld(size)
		for root := 0; root < size; root += 1 + size/3 {
			var mu sync.Mutex
			got := make([][]float64, size)
			w.Run(func(c *Comm) {
				var data []float64
				if c.Rank() == root {
					data = []float64{1.5, 2.5, float64(root)}
				}
				out := c.Bcast(root, data, ClassControl)
				mu.Lock()
				got[c.Rank()] = out
				mu.Unlock()
			})
			for r := 0; r < size; r++ {
				if len(got[r]) != 3 || got[r][0] != 1.5 || got[r][2] != float64(root) {
					t.Fatalf("size=%d root=%d rank=%d got %v", size, root, r, got[r])
				}
			}
		}
	}
}

func TestBcastBytes(t *testing.T) {
	w := NewWorld(7)
	payload := []byte("traversal descriptor payload")
	var mu sync.Mutex
	ok := 0
	w.Run(func(c *Comm) {
		var data []byte
		if c.Rank() == 2 {
			data = payload
		}
		out := c.BcastBytes(2, data, ClassTraversal)
		if string(out) == string(payload) {
			mu.Lock()
			ok++
			mu.Unlock()
		}
	})
	if ok != 7 {
		t.Fatalf("only %d ranks received the broadcast", ok)
	}
	s := w.Meter().Snapshot()
	if s.Ops[ClassTraversal] != 1 || s.Bytes[ClassTraversal] != int64(len(payload)) {
		t.Fatalf("metering: %+v", s)
	}
}

func TestReduceSum(t *testing.T) {
	for _, size := range []int{1, 2, 4, 6, 9} {
		w := NewWorld(size)
		var result []float64
		var mu sync.Mutex
		w.Run(func(c *Comm) {
			data := []float64{float64(c.Rank()), 1}
			out := c.Reduce(0, data, OpSum, ClassLikelihoodEval)
			if c.Rank() == 0 {
				mu.Lock()
				result = out
				mu.Unlock()
			} else if out != nil {
				t.Errorf("non-root rank %d got non-nil reduce result", c.Rank())
			}
		})
		wantSum := float64(size*(size-1)) / 2
		if result[0] != wantSum || result[1] != float64(size) {
			t.Fatalf("size=%d: reduce = %v", size, result)
		}
	}
}

func TestReduceMinMax(t *testing.T) {
	w := NewWorld(5)
	var minRes, maxRes []float64
	w.Run(func(c *Comm) {
		v := []float64{float64(c.Rank()*c.Rank() - 3)}
		// A result is valid until the Comm's next collective: keep a copy.
		mn := append([]float64(nil), c.Reduce(0, v, OpMin, ClassControl)...)
		mx := c.Reduce(0, v, OpMax, ClassControl)
		if c.Rank() == 0 {
			minRes, maxRes = mn, mx
		}
	})
	if minRes[0] != -3 || maxRes[0] != 13 {
		t.Fatalf("min=%v max=%v", minRes, maxRes)
	}
}

func TestAllreduceIdenticalEverywhere(t *testing.T) {
	// The §III-B property: results must be BIT-identical on all ranks,
	// even for sums that are sensitive to association order.
	for _, size := range []int{2, 3, 7, 16} {
		w := NewWorld(size)
		rng := rand.New(rand.NewSource(int64(size)))
		inputs := make([][]float64, size)
		for r := range inputs {
			vec := make([]float64, 64)
			for i := range vec {
				vec[i] = math.Exp(rng.NormFloat64() * 30) // wildly varying magnitudes
			}
			inputs[r] = vec
		}
		results := make([][]float64, size)
		var mu sync.Mutex
		w.Run(func(c *Comm) {
			out := c.Allreduce(inputs[c.Rank()], OpSum, ClassLikelihoodEval)
			mu.Lock()
			results[c.Rank()] = out
			mu.Unlock()
		})
		for r := 1; r < size; r++ {
			for i := range results[0] {
				if math.Float64bits(results[r][i]) != math.Float64bits(results[0][i]) {
					t.Fatalf("size=%d: rank %d element %d differs bitwise from rank 0", size, r, i)
				}
			}
		}
	}
}

func TestAllreduceSumCorrect(t *testing.T) {
	w := NewWorld(6)
	var out []float64
	var mu sync.Mutex
	w.Run(func(c *Comm) {
		res := c.Allreduce([]float64{float64(c.Rank() + 1)}, OpSum, ClassLikelihoodEval)
		mu.Lock()
		if out == nil {
			out = res
		}
		mu.Unlock()
	})
	if out[0] != 21 {
		t.Fatalf("allreduce sum = %v", out)
	}
}

func TestBarrier(t *testing.T) {
	// After a barrier, every rank must have observed every other rank's
	// pre-barrier write.
	for _, size := range []int{1, 3, 8} {
		w := NewWorld(size)
		flags := make([]int32, size)
		var mu sync.Mutex
		fail := false
		w.Run(func(c *Comm) {
			mu.Lock()
			flags[c.Rank()] = 1
			mu.Unlock()
			c.Barrier(ClassControl)
			mu.Lock()
			for r := 0; r < size; r++ {
				if flags[r] != 1 {
					fail = true
				}
			}
			mu.Unlock()
		})
		if fail {
			t.Fatalf("size=%d: barrier did not synchronize", size)
		}
	}
}

func TestMeterAccounting(t *testing.T) {
	w := NewWorld(4)
	w.Run(func(c *Comm) {
		c.Bcast(0, make([]float64, 10), ClassModelParams)           // 80 bytes
		c.Allreduce([]float64{1, 2, 3}, OpSum, ClassLikelihoodEval) // 24 bytes
		c.Reduce(0, []float64{1}, OpSum, ClassBranchLength)         // 8 bytes
	})
	s := w.Meter().Snapshot()
	if s.Bytes[ClassModelParams] != 80 {
		t.Errorf("model params bytes = %d", s.Bytes[ClassModelParams])
	}
	if s.Bytes[ClassLikelihoodEval] != 24 {
		t.Errorf("likelihood bytes = %d (an Allreduce on 3 doubles must count 24)", s.Bytes[ClassLikelihoodEval])
	}
	if s.Bytes[ClassBranchLength] != 8 {
		t.Errorf("branch bytes = %d", s.Bytes[ClassBranchLength])
	}
	if s.TotalOps() != 3 {
		t.Errorf("total ops = %d, want 3", s.TotalOps())
	}
	w.Meter().AddRegion(ClassBranchLength)
	if w.Meter().Snapshot().Regions[ClassBranchLength] != 1 {
		t.Error("region count not recorded")
	}
	before := w.Meter().Snapshot()
	w.Meter().Reset()
	if w.Meter().Snapshot().TotalBytes() != 0 {
		t.Error("reset did not clear")
	}
	if before.Sub(before).TotalBytes() != 0 {
		t.Error("Sub broken")
	}
	if before.Add(before).TotalBytes() != 2*before.TotalBytes() {
		t.Error("Add broken")
	}
	if before.String() == "" {
		t.Error("String empty")
	}
}

func TestSequenceMismatchPanics(t *testing.T) {
	// Rank 1 skips a collective → the seq assertion must fire rather than
	// silently mispairing messages.
	defer func() {
		p := recover()
		if p == nil {
			t.Fatal("expected panic on collective order mismatch")
		}
		if msg := fmt.Sprint(p); !strings.Contains(msg, "collective protocol mismatch") || !strings.Contains(msg, "collective order") {
			t.Fatalf("panic %q does not name the protocol mismatch", msg)
		}
	}()
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Bcast(0, []float64{1}, ClassControl)
			c.Bcast(0, []float64{2}, ClassControl)
		} else {
			c.nextSeq() // desynchronize
			c.Bcast(0, nil, ClassControl)
		}
	})
}

func TestWorldValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for size 0")
		}
	}()
	NewWorld(0)
}
