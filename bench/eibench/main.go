// Command eibench is the repository's end-to-end benchmark: it boots the
// real serving stack in one process — openei nodes behind a gateway, each
// on its own loopback listener — and drives /ei_algorithms/serving/infer
// with the typed libei client over real TCP, verifying every answer.
//
//	go run ./bench/eibench -workload <name|all> -seed N [-trace]
//	go run ./bench/eibench -check old.json new.json
//
// An untraced run prints the seven end-to-end metrics; a -trace run
// installs the benchmark's own span recorders at the stack's public seams
// and prints the per-layer metrics and the latency budget. See
// bench/README.md for every definition.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"openei/internal/tensor"
)

const schema = "eibench/1"

// document is what one invocation prints: every metric of every workload
// run, by name and unit, with the run's metadata.
type document struct {
	Schema    string            `json:"schema"`
	Meta      meta              `json:"meta"`
	Workloads []*workloadResult `json:"workloads"`
}

type meta struct {
	Started     time.Time `json:"started"`
	Seed        int64     `json:"seed"`
	Trace       bool      `json:"trace"`
	Seconds     float64   `json:"seconds"`
	Segments    int       `json:"segments"`
	Requests    int       `json:"requests,omitempty"`
	GoVersion   string    `json:"go_version"`
	GOMAXPROCS  int       `json:"gomaxprocs"`
	NumCPU      int       `json:"nproc"`
	KernelGEMM  string    `json:"kernel_gemm"`
	KernelQGEMM string    `json:"kernel_qgemm"`
	ForceScalar string    `json:"openei_force_scalar"`
}

// result is the acceptance driver's contract: the last line of stdout.
type result struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contractLine folds the document into the driver's result object. With
// one workload the metrics carry their own names; with several they are
// prefixed "<workload>/".
func contractLine(doc *document) result {
	res := result{Correct: true, Metrics: map[string]contractMetric{}}
	for _, w := range doc.Workloads {
		res.Correct = res.Correct && w.Correct
		res.Attempted += w.Attempted
		res.Failed += w.Failed + w.WrongClass
		set := w.EndToEnd
		if doc.Meta.Trace {
			set = w.PerLayer
		}
		for name, m := range set {
			if len(doc.Workloads) > 1 {
				name = w.Name + "/" + name
			}
			res.Metrics[name] = contractMetric{Value: m.Value, Unit: m.Unit}
		}
	}
	return res
}

// run executes the selected workloads and returns the document.
func run(name string, opt options) (*document, error) {
	doc := &document{Schema: schema, Meta: meta{
		Started: time.Now().UTC(), Seed: opt.seed, Trace: opt.trace,
		Seconds: opt.seconds, Segments: segments, Requests: opt.requests,
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		KernelGEMM: tensor.KernelGEMM(), KernelQGEMM: tensor.KernelQGEMM(),
		ForceScalar: os.Getenv("OPENEI_FORCE_SCALAR"),
	}}
	if opt.trace {
		doc.Meta.Segments = tracedSegments
	}
	selected := workloads
	if name != "all" {
		w, err := workloadByName(name)
		if err != nil {
			return nil, err
		}
		selected = []workload{*w}
	}
	for i := range selected {
		r, err := runWorkload(&selected[i], opt)
		if err != nil {
			return nil, fmt.Errorf("workload %s: %w", selected[i].name, err)
		}
		doc.Workloads = append(doc.Workloads, r)
	}
	return doc, nil
}

// emit writes the document, then the contract line last. On a traced run
// the markdown budget tables go to diag.
func emit(doc *document, out, diag io.Writer) error {
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return err
	}
	for _, w := range doc.Workloads {
		if len(w.Budget) > 0 {
			fmt.Fprint(diag, budgetTable(w))
		}
		for _, p := range w.Problems {
			fmt.Fprintf(diag, "eibench: %s: %s\n", w.Name, p)
		}
	}
	return json.NewEncoder(out).Encode(contractLine(doc))
}

// normalizeArgs lets the boolean -trace also take its value as a separate
// argument ("--trace 1"), which is how the acceptance driver passes it.
func normalizeArgs(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		if (args[i] == "-trace" || args[i] == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			out = append(out, "-trace="+args[i+1])
			i++
			continue
		}
		out = append(out, args[i])
	}
	return out
}

func main() {
	fs := flag.NewFlagSet("eibench", flag.ExitOnError)
	name := fs.String("workload", "all", "workload name, or all")
	seed := fs.Int64("seed", 1, "seed of the generated inputs, mix and arrival schedule (weights are fixed)")
	seconds := fs.Float64("seconds", 20, "measured window in seconds, split into five segments")
	trace := fs.Bool("trace", false, "traced run: per-layer metrics and the latency budget instead of the end-to-end metrics")
	requests := fs.Int("requests", 0, "if > 0, run every segment for this many requests instead of by the clock")
	outDir := fs.String("out", "bench/out", "directory for the traced run's span dump")
	checkMode := fs.Bool("check", false, "compare two result files: -check old.json new.json")
	spec := fs.String("spec", "BENCHMARK.json", "metric bounds for -check")
	_ = fs.Parse(normalizeArgs(os.Args[1:])) // ExitOnError

	if *checkMode {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: eibench -check old.json new.json")
			os.Exit(2)
		}
		regressed, err := check(*spec, fs.Arg(0), fs.Arg(1), os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "eibench:", err)
			os.Exit(2)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}

	doc, err := run(*name, options{seed: *seed, seconds: *seconds, requests: *requests, trace: *trace, outDir: *outDir})
	if err != nil {
		fmt.Fprintln(os.Stderr, "eibench:", err)
		os.Exit(2)
	}
	if err := emit(doc, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "eibench:", err)
		os.Exit(2)
	}
	for _, w := range doc.Workloads {
		if !w.Correct {
			os.Exit(1)
		}
	}
}
