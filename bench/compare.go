package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"text/tabwriter"
)

// compareMain implements "bench compare A B": A and B are result files
// written with -out (A the parent, B the change). It returns the exit code.
func compareMain(args []string, stdout io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare A.jsonl B.jsonl")
		return 2
	}
	rows, err := compareFiles(args[0], args[1])
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench compare: %v\n", err)
		return 1
	}
	printRows(stdout, rows)
	return 0
}

func compareFiles(pathA, pathB string) ([]row, error) {
	bf, err := readBenchmarkFile()
	if err != nil {
		return nil, err
	}
	a, err := readRecords(pathA)
	if err != nil {
		return nil, err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return nil, err
	}
	return compare(bf, a, b)
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// row is the verdict on one (workload, metric) pair.
type row struct {
	workload, metric, unit string
	a, b                   [3]float64 // quartiles; [1] is the median
	wins, pairs            int
	label                  string
}

// compare judges every end-to-end metric of BENCHMARK.json on every
// workload both sides ran untraced. It refuses records from different
// hosts: their numbers are not comparable.
func compare(bf *benchmarkFile, a, b []record) ([]row, error) {
	var hostSeen *host
	for _, side := range [][]record{a, b} {
		for _, r := range side {
			if hostSeen == nil {
				hostSeen = &r.Machine.Host
			} else if r.Machine.Host != *hostSeen {
				return nil, fmt.Errorf("results come from different machines: %+v and %+v", *hostSeen, r.Machine.Host)
			}
		}
	}
	var rows []row
	for _, w := range bf.Workloads {
		for _, m := range bf.EndToEnd {
			av, bv := values(a, w.Name, m.Name), values(b, w.Name, m.Name)
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			r := judge(av, bv, m.Better == "lower", m.Bound)
			r.workload, r.metric, r.unit = w.Name, m.Name, m.Unit
			rows = append(rows, r)
		}
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("no workload has untraced results on both sides")
	}
	return rows, nil
}

// values collects one metric of one workload's correct untraced records,
// in file order.
func values(rs []record, workload, metric string) []float64 {
	var out []float64
	for _, r := range rs {
		if r.Traced || !r.Correct || r.Machine.Workload != workload {
			continue
		}
		if mt, ok := r.Metrics[metric]; ok {
			out = append(out, mt.Value)
		}
	}
	return out
}

// judge applies the comparison rules to the parent's values a and the
// change's values b, paired in order:
//
//   - improved: b is better in at least 90% of the pairs (ties count for
//     neither side) and the medians differ by more than a's interquartile
//     range;
//   - unresolved: otherwise, when either side's spread (interquartile range
//     over median) is wider than the bound;
//   - regressed: otherwise, when b's median is worse than a's by more than
//     the bound (a share of a's median);
//   - same: otherwise.
func judge(a, b []float64, lowerBetter bool, bound float64) row {
	r := row{a: quartiles(a), b: quartiles(b), pairs: min(len(a), len(b))}
	better := func(x, y float64) bool {
		if lowerBetter {
			return x < y
		}
		return x > y
	}
	for i := 0; i < r.pairs; i++ {
		if better(b[i], a[i]) {
			r.wins++
		}
	}
	ma, mb := r.a[1], r.b[1]
	iqrA := r.a[2] - r.a[0]
	spread := math.Max(ratio(iqrA, math.Abs(ma)), ratio(r.b[2]-r.b[0], math.Abs(mb)))
	worse := mb > ma*(1+bound)
	if !lowerBetter {
		worse = mb < ma*(1-bound)
	}
	switch {
	case better(mb, ma) && float64(r.wins) >= 0.9*float64(r.pairs) && math.Abs(mb-ma) > iqrA:
		r.label = "improved"
	case spread > bound:
		r.label = "unresolved"
	case worse:
		r.label = "regressed"
	default:
		r.label = "same"
	}
	return r
}

func printRows(w io.Writer, rows []row) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA median [q1, q3]\tB median [q1, q3]\tB won\tverdict")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%.4g [%.4g, %.4g] %s\t%.4g [%.4g, %.4g] %s\t%d/%d\t%s\n",
			r.workload, r.metric, r.a[1], r.a[0], r.a[2], r.unit, r.b[1], r.b[0], r.b[2], r.unit, r.wins, r.pairs, r.label)
	}
	tw.Flush()
}
