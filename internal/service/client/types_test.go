package client

import (
	"bytes"
	"encoding/json"
	"math/big"
	"reflect"
	"testing"
)

// FuzzJobSpec decodes a submit body as the daemon's submit handler does
// (unknown fields refused) and normalizes it: a spec Normalize accepts
// meets every bound a worker relies on — ranks, threads and the simulated
// alignment's cells above all, which size what a worker starts and
// allocates — and normalizing it again changes nothing. It never runs a
// job.
func FuzzJobSpec(f *testing.F) {
	for _, s := range []string{
		`{"phylip": "2 4\na ACGT\nb ACGA\n", "ranks": 2, "threads": 4}`,
		`{"simulate": {"taxa": 10, "partitions": 2, "gene_length": 60, "seed": 33}, "ranks": 2,
		  "inject_failure": {"rank": 1, "after_iteration": 1}}`,
		`{"simulate": {"taxa": 16, "partitions": 4, "gene_length": 1048576}}`,
		`{"simulate": {"taxa": 16, "partitions": 4, "gene_length": 1048577}}`,
		`{"phylip": "x", "threads": 1000000000}`,
		`{"phylip": "x", "threads": 256}`,
		`{"simulate": {"taxa": 1000000, "partitions": 1000000, "gene_length": 1000000}}`,
		`{"simulate": {"taxa": 4, "partitions": 4294967296, "gene_length": 4294967296}}`,
		`{"phylip": "x", "ranks": 65}`,
		`{"phylip": "x", "max_recoveries": -1}`,
		`{"phylip": "x", "bogus": 1}`,
		`{"phylip": "x", "campaign": "c", "bootstrap": {"seed": 3}, "trace": true}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var spec JobSpec
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if dec.Decode(&spec) != nil || spec.Normalize() != nil {
			return
		}
		if spec.Ranks < 1 || spec.Ranks > MaxRanksPerJob {
			t.Fatalf("accepted %d ranks", spec.Ranks)
		}
		if spec.Threads < 0 || spec.Threads > MaxThreadsPerRank {
			t.Fatalf("accepted %d threads", spec.Threads)
		}
		if sim := spec.Simulate; sim != nil {
			cells := new(big.Int).Mul(big.NewInt(int64(sim.Taxa)), big.NewInt(int64(sim.Partitions)))
			cells.Mul(cells, big.NewInt(int64(sim.GeneLength)))
			if sim.Taxa < 4 || sim.Partitions < 1 || sim.GeneLength < 1 || cells.Cmp(big.NewInt(MaxSimulateCells)) > 0 {
				t.Fatalf("accepted a simulation of %d taxa × %d partitions × %d sites", sim.Taxa, sim.Partitions, sim.GeneLength)
			}
		} else if spec.Phylip == "" {
			t.Fatal("accepted a spec with neither an alignment nor a simulation")
		}
		if spec.MaxIterations < 0 || spec.Epsilon < 0 || spec.SPRRadius < 0 || spec.MaxRecoveries < 1 ||
			len(spec.Campaign) > maxCampaignLabel {
			t.Fatalf("accepted %+v", spec)
		}
		if inj := spec.InjectFailure; inj != nil && (inj.Rank < 0 || inj.Rank >= spec.Ranks || inj.AfterIteration < 1) {
			t.Fatalf("accepted a failure drill on rank %d of %d after iteration %d", inj.Rank, spec.Ranks, inj.AfterIteration)
		}
		again := spec
		if err := again.Normalize(); err != nil || !reflect.DeepEqual(again, spec) {
			t.Fatalf("normalizing a normalized spec: %v, %+v → %+v", err, spec, again)
		}
	})
}
