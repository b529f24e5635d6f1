// Command loombench is the repository's end-to-end benchmark. It drives
// the public API that cmd/loom-serve's handlers wrap — serve.Open,
// Server.IngestFrames/IngestSync/Checkpoint/TriggerRestream/Export and
// qserve.Engine.Query/Refresh — from one client goroutine in a closed
// loop, checks the outputs, and prints one JSON result line.
//
//	loombench --workload ingest-motif --seed 1 --seconds 40 --trace 0
//
// With --trace 1 the run is repeated with spans around every call and a
// replay of each request through the layers' own public functions, and
// the per-layer metrics are printed instead of the end-to-end ones. See
// README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
)

func main() { os.Exit(benchMain()) }

func benchMain() int {
	name := flag.String("workload", "", "workload: ingest-motif or query-feedback")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 40, "seconds of cycles per run")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	def, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "loombench: unknown workload %q\n", *name)
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "loombench: --seconds must be > 0 and --trace 0 or 1")
		return 2
	}
	scratch := filepath.Join(".bench_build", "run", fmt.Sprint(os.Getpid()))
	defer os.RemoveAll(scratch)
	out, err := run(def, *seed, *seconds, *trace == 1, scratch)
	if err != nil {
		fmt.Fprintf(os.Stderr, "loombench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "loombench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run executes one benchmark run: the untraced lifecycle and, for a
// traced run, a second traced one.
func run(def workloadDef, seed int64, seconds float64, traced bool, scratch string) (result, error) {
	in, err := makeInputs(def, seed)
	if err != nil {
		return result{}, err
	}
	plain, err := lifecycle(def, in, seconds, nil, filepath.Join(scratch, "plain"))
	if err != nil {
		return result{}, err
	}
	res := result{Attempted: plain.attempted, Failed: plain.failed, Metrics: plain.endToEnd()}
	checks := plain.checks
	if traced {
		t := newTracer()
		tr, err := lifecycle(def, in, seconds, t, filepath.Join(scratch, "traced"))
		if err != nil {
			return result{}, err
		}
		res.Attempted += tr.attempted
		res.Failed += tr.failed
		checks = append(checks, tr.checks...)
		// The result line carries the per-layer metrics only; the
		// end-to-end ones of the untraced cycles still go to the report.
		for _, n := range sortedNames(res.Metrics) {
			m := res.Metrics[n]
			fmt.Fprintf(os.Stderr, "%-48s %14.6g %s\n", n, m.Value, m.Unit)
		}
		res.Metrics = tr.perLayer(res.Metrics)
		path := filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d.jsonl", def.name, seed))
		if err := t.write(path); err != nil {
			return result{}, err
		}
		fmt.Fprintf(os.Stderr, "spans: %d written to %s\n", len(t.spans), path)
	}
	res.Correct = true
	for _, c := range checks {
		status := "ok"
		if !c.ok {
			status = "FAILED"
			res.Correct = false
		}
		fmt.Fprintf(os.Stderr, "check %-40s %s  %s\n", c.name, status, c.detail)
	}
	for _, n := range sortedNames(res.Metrics) {
		m := res.Metrics[n]
		fmt.Fprintf(os.Stderr, "%-48s %14.6g %s\n", n, m.Value, m.Unit)
		// JSON has no Inf or NaN. A p99 beyond the failed requests reads
		// +Inf and an empty sample NaN; both only follow failures.
		if math.IsInf(m.Value, 0) || math.IsNaN(m.Value) {
			m.Value = -1
			res.Metrics[n] = m
			res.Correct = false
		}
	}
	return res, nil
}

func sortedNames(m map[string]metric) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
