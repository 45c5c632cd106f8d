package mpi

import (
	"sync"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// testRecorder pairs a single-rank collector with its recorder so tests
// can read back the recorded span counts.
type testRecorder struct {
	col *telemetry.Collector
	rec *telemetry.Recorder
}

func newTestRecorder() testRecorder {
	col := telemetry.NewCollector(1, int(NumCommClasses), nil)
	return testRecorder{col: col, rec: col.Recorder(0)}
}

// collectiveOps returns the number of collective spans recorded for the
// given traffic class.
func (t testRecorder) collectiveOps(class int) int64 {
	rep := t.col.Finalize(time.Second, 1, nil, nil, nil)
	return rep.PerRank[0].CollectiveOps[class]
}

// TestAllreduceMeteredOnce verifies the Table-I accounting convention:
// a logical Allreduce is metered as one op carrying the payload once —
// its Reduce and Bcast legs are not two operations, and the count does
// not depend on the rank count.
func TestAllreduceMeteredOnce(t *testing.T) {
	const vecLen, rounds = 37, 5
	for _, size := range []int{1, 2, 5, 8} {
		w := NewWorld(size)
		w.Run(func(c *Comm) {
			for i := 0; i < rounds; i++ {
				vec := make([]float64, vecLen)
				for j := range vec {
					vec[j] = float64(c.Rank()*vecLen + j)
				}
				c.Allreduce(vec, OpSum, ClassLikelihoodEval)
				// A second class so per-class separation is exercised too.
				c.Allreduce(vec[:2], OpSum, ClassBranchLength)
			}
		})
		s := w.Meter().Snapshot()
		want := map[CommClass][2]int64{
			ClassLikelihoodEval: {rounds, rounds * vecLen * 8},
			ClassBranchLength:   {rounds, rounds * 2 * 8},
		}
		for c := CommClass(0); c < NumCommClasses; c++ {
			if got := [2]int64{s.Ops[c], s.Bytes[c]}; got != want[c] {
				t.Errorf("size %d, class %s: {ops, bytes} = %v, want %v (one op per logical Allreduce)", size, c, got, want[c])
			}
		}
	}
}

// TestMeterParityWithRecorder re-runs the accounting with telemetry
// recorders attached, proving recording is purely observational: the
// meters (which feed Table I) are unchanged, and every rank records
// exactly one collective span per logical Allreduce (the Reduce and
// Bcast nested inside it must not double-count).
func TestMeterParityWithRecorder(t *testing.T) {
	const size, rounds = 6, 4

	run := func(recorded bool) (Snapshot, []int64) {
		w := NewWorld(size)
		ops := make([]int64, size)
		var mu sync.Mutex
		w.Run(func(c *Comm) {
			rec := newTestRecorder()
			if recorded {
				c.SetRecorder(rec.rec)
			}
			for i := 0; i < rounds; i++ {
				c.Allreduce([]float64{float64(c.Rank()), 1}, OpSum, ClassLikelihoodEval)
			}
			mu.Lock()
			ops[c.Rank()] = rec.collectiveOps(int(ClassLikelihoodEval))
			mu.Unlock()
		})
		return w.Meter().Snapshot(), ops
	}

	plain, _ := run(false)
	snap, ops := run(true)
	if plain != snap {
		t.Errorf("meters differ with a recorder attached: plain %v, recorded %v", plain, snap)
	}
	for r := 0; r < size; r++ {
		if ops[r] != rounds {
			t.Errorf("rank %d recorded %d collective spans, want %d (nested Reduce/Bcast must not double-count)", r, ops[r], rounds)
		}
	}
}
