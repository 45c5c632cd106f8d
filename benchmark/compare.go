package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func loadRecord(path string) (*record, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r record
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// verdict classifies one end-to-end metric (all are better when lower).
// A side whose own min-max spread exceeds the bound cannot resolve a
// difference of the bound's size, whatever the medians say.
func verdict(old, new *summary, bound float64) string {
	spread := func(s *summary) float64 { return (s.Max - s.Min) / s.Median }
	switch ratio := new.Median / old.Median; {
	case spread(old) > bound || spread(new) > bound:
		return "unresolved"
	case ratio > 1+bound:
		return "regressed"
	case ratio < 1-bound:
		return "improved"
	}
	return "within bound"
}

// compareRecords prints, for every workload and end-to-end metric, the old
// and new medians, their ratio with the old median as base, the bound and
// a verdict, with the per-layer metrics beside them (never gated). The
// returned exit status is non-zero on any regression or on a higher share
// of failed ops.
func compareRecords(oldPath, newPath string, out io.Writer) int {
	var recs [2]*record
	for i, path := range []string{oldPath, newPath} {
		var err error
		if recs[i], err = loadRecord(path); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
	}
	return compare(recs[0], recs[1], out)
}

func compare(old, cur *record, out io.Writer) int {
	if old.Seed != cur.Seed || old.Seconds != cur.Seconds || old.Runs != cur.Runs {
		fmt.Fprintf(out, "records differ in seed (%d, %d), seconds (%d, %d) or runs (%d, %d): they measured different ops and cannot be compared\n",
			old.Seed, cur.Seed, old.Seconds, cur.Seconds, old.Runs, cur.Runs)
		return 2
	}
	oe, ce := old.Env, cur.Env
	oe.Load1, ce.Load1 = 0, 0
	if oe != ce {
		fmt.Fprintf(out, "warning: environments differ:\n  old %+v\n  new %+v\n", old.Env, cur.Env)
	}
	status := 0
	for _, w := range workloads {
		o, n := old.Workloads[w.name], cur.Workloads[w.name]
		if o == nil || n == nil {
			fmt.Fprintf(out, "%s: missing from one record\n", w.name)
			status = 1
			continue
		}
		for _, d := range endToEnd {
			a, b := o.EndToEnd[d.name], n.EndToEnd[d.name]
			if a == nil || b == nil {
				fmt.Fprintf(out, "%s %s: missing from one record\n", w.name, d.name)
				status = 1
				continue
			}
			v := verdict(a, b, d.sameSeed)
			if v == "regressed" {
				status = 1
			}
			fmt.Fprintf(out, "%s %s old %.6g %s, new %.6g %s, new/old %.4f, bound %g: %s\n",
				w.name, d.name, a.Median, d.unit, b.Median, d.unit, b.Median/a.Median, d.sameSeed, v)
		}
		of, nf := float64(o.OpsFailed)/float64(o.OpsAttempted), float64(n.OpsFailed)/float64(n.OpsAttempted)
		fmt.Fprintf(out, "%s ops_failed old %d/%d new %d/%d\n", w.name, o.OpsFailed, o.OpsAttempted, n.OpsFailed, n.OpsAttempted)
		if nf > of {
			fmt.Fprintf(out, "%s FAILED: more ops fail than before\n", w.name)
			status = 1
		}
		for _, d := range perLayer {
			ov, nv := o.PerLayer[d.name], n.PerLayer[d.name]
			if ov == nil || nv == nil {
				continue
			}
			fmt.Fprintf(out, "  %s %s old %.6g new %.6g %s\n", w.name, d.name, ov.Value, nv.Value, d.unit)
		}
	}
	return status
}
