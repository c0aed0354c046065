package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"text/tabwriter"
)

// benchmarkSpec is the part of BENCHMARK.json -check applies: each
// end-to-end metric's direction and regression bound.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(path string) (*benchmarkSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

// readDocs reads every result document in a file. A file is one run's
// captured stdout, or several concatenated: JSON values that are not
// eibench documents (the contract line) are skipped.
func readDocs(path string) ([]document, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var docs []document
	dec := json.NewDecoder(f)
	for {
		var d document
		if err := dec.Decode(&d); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if d.Schema == schema {
			docs = append(docs, d)
		}
	}
	if len(docs) == 0 {
		return nil, fmt.Errorf("%s: no %s document", path, schema)
	}
	return docs, nil
}

// evidence is what one side knows about a metric: the values its runs
// reported, and the samples behind them — the runs' values themselves, or
// with a single run its segments.
type evidence struct {
	values  []float64
	samples []float64
}

// side is one side's evidence for a workload and its request tally.
type side struct {
	metrics           map[string]*evidence
	attempted, failed int
}

// gather collects a workload's evidence from one side's documents.
func gather(docs []document, workload string) side {
	s := side{metrics: map[string]*evidence{}}
	var runs []*workloadResult
	for i := range docs {
		for _, w := range docs[i].Workloads {
			if w.Name == workload && w.EndToEnd != nil {
				runs = append(runs, w)
			}
		}
	}
	for _, w := range runs {
		s.attempted += w.Attempted
		s.failed += w.Failed + w.WrongClass
		for name, m := range w.EndToEnd {
			e := s.metrics[name]
			if e == nil {
				e = &evidence{}
				s.metrics[name] = e
			}
			e.values = append(e.values, m.Value)
			if len(runs) == 1 && len(m.Segments) > 0 {
				e.samples = m.Segments
			} else {
				e.samples = e.values
			}
		}
	}
	return s
}

// verdict compares one metric's old and new evidence under its bound.
// worsening is the change of the median reported value in the worse
// direction, as a share of the old one. Samples whose quartile spread
// exceeds the bound cannot resolve a change of that size: the verdict is
// unresolved unless every new sample lies on one side of every old one.
func verdict(old, new *evidence, m specMetric) (v string, worsening float64) {
	o, n := summarize(old.values).median, summarize(new.values).median
	worsening = (n - o) / math.Abs(o)
	if m.Better == "higher" {
		worsening = -worsening
	}
	os, ns := summarize(old.samples), summarize(new.samples)
	separated := ns.min > os.max || ns.max < os.min
	if spread := math.Max(quartileSpread(old.samples), quartileSpread(new.samples)); spread > m.Bound && !separated {
		return "unresolved", worsening
	}
	switch {
	case worsening > m.Bound:
		return "worse", worsening
	case worsening < -m.Bound:
		return "better", worsening
	}
	return "same", worsening
}

// check prints, per workload × end-to-end metric, whether new is the
// same as, better or worse than old under BENCHMARK.json's bounds, and
// reports whether anything regressed: a metric judged worse, or a larger
// failed share.
func check(specPath, oldPath, newPath string, out io.Writer) (regressed bool, err error) {
	spec, err := readSpec(specPath)
	if err != nil {
		return false, err
	}
	oldDocs, err := readDocs(oldPath)
	if err != nil {
		return false, err
	}
	newDocs, err := readDocs(newPath)
	if err != nil {
		return false, err
	}
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\told\tnew\tworsening\tbound\tverdict")
	for _, w := range spec.Workloads {
		o, n := gather(oldDocs, w.Name), gather(newDocs, w.Name)
		if o.attempted == 0 || n.attempted == 0 {
			continue // the workload was not run on both sides
		}
		for _, m := range spec.EndToEnd {
			ov, nv := o.metrics[m.Name], n.metrics[m.Name]
			if ov == nil || nv == nil {
				return false, fmt.Errorf("workload %s: metric %s missing from a result file", w.Name, m.Name)
			}
			v, worsening := verdict(ov, nv, m)
			regressed = regressed || v == "worse"
			fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g\t%+.1f %%\t%.0f %%\t%s\n",
				w.Name, m.Name, summarize(ov.values).median, summarize(nv.values).median, 100*worsening, 100*m.Bound, v)
		}
		oldShare := float64(o.failed) / float64(o.attempted)
		newShare := float64(n.failed) / float64(n.attempted)
		v := "same"
		if newShare > oldShare {
			v, regressed = "worse", true
		}
		fmt.Fprintf(tw, "%s\tfailed_share\t%.4g\t%.4g\t\t\t%s\n", w.Name, oldShare, newShare, v)
	}
	return regressed, tw.Flush()
}
