package openei

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The documentation set the repo ships: every markdown file here is
// link-checked so a moved file or renamed doc fails CI instead of
// leaving a dead reference.
var docFiles = []string{
	"README.md",
	"ARCHITECTURE.md",
	"ROADMAP.md",
	"docs/METRICS.md",
	"docs/TRACING.md",
	"docs/KERNELS.md",
	"examples/health/README.md",
	"examples/smart_home/README.md",
	"examples/vehicles/README.md",
	"examples/safety_video/README.md",
	"examples/pipeline/README.md",
}

var mdLink = regexp.MustCompile(`\]\(([^)\s]+)\)`)

var goRunCmd = regexp.MustCompile("go run (\\./[^\\s`'\"]+)")

// TestDocsLinks is the docs lint: every relative markdown link in the
// doc set must resolve to a file that exists in the repo.
func TestDocsLinks(t *testing.T) {
	for _, f := range docFiles {
		body, err := os.ReadFile(f)
		if err != nil {
			t.Errorf("doc file missing: %v", err)
			continue
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(body), -1) {
			target := m[1]
			if strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://") || strings.HasPrefix(target, "mailto:") {
				continue
			}
			// Strip a #fragment; a bare fragment links within the file.
			if i := strings.IndexByte(target, '#'); i >= 0 {
				target = target[:i]
			}
			if target == "" {
				continue
			}
			resolved := filepath.Join(filepath.Dir(f), target)
			if _, err := os.Stat(resolved); err != nil {
				t.Errorf("%s: broken link %q (resolved %s)", f, m[1], resolved)
			}
		}
	}
}

// TestDocsCommands is the docs lint for runnable commands: every
// `go run ./<path>` in the doc set must name a directory that holds a
// main package, so a deleted or moved command fails CI instead of
// leaving instructions that cannot run.
func TestDocsCommands(t *testing.T) {
	for _, f := range docFiles {
		body, err := os.ReadFile(f)
		if err != nil {
			t.Errorf("doc file missing: %v", err)
			continue
		}
		for _, m := range goRunCmd.FindAllStringSubmatch(string(body), -1) {
			if !isMainPackage(m[1]) {
				t.Errorf("%s: %q is not a main package", f, "go run "+m[1])
			}
		}
	}
}

// isMainPackage reports whether dir holds a non-test Go file declaring
// package main.
func isMainPackage(dir string) bool {
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return false
	}
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.PackageClauseOnly)
		if err == nil && f.Name.Name == "main" {
			return true
		}
	}
	return false
}

// TestDocsCurrent pins the claims most likely to rot: the README must
// not resurrect the removed layer-walk fallback, and the docs the
// README links as its companions must mention the subsystems this
// repo actually ships.
func TestDocsCurrent(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(readme), "the fallback for") && strings.Contains(string(readme), `"layer-walk"`) {
		t.Error("README still documents the layer-walk fallback backend; recurrent stacks compile now")
	}
	for _, want := range []string{
		"-exit-threshold", "mean_steps_used", "fastgrnn-m", "-trace-sample", "/gw_trace", "-debug-addr",
		// The kernel arsenal: the backend list includes int4, kernel
		// dispatch is documented as observable.
		"int4", "packed-fma", "OPENEI_FORCE_SCALAR", "docs/KERNELS.md",
	} {
		if !strings.Contains(string(readme), want) {
			t.Errorf("README does not mention %q", want)
		}
	}
	kernels, err := os.ReadFile("docs/KERNELS.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		// The dispatch names the metrics surface, the scalar override,
		// and the contracts callers must not break.
		"packed-fma", "qgemm-avx2", "direct-conv", "scalar", "OPENEI_FORCE_SCALAR",
		"QRound8", "slack", "per-output-channel scales",
	} {
		if !strings.Contains(string(kernels), want) {
			t.Errorf("docs/KERNELS.md does not document %q", want)
		}
	}
	metrics, err := os.ReadFile("docs/METRICS.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"exit_threshold", "mean_steps_used", "tenants", "cluster", "deadline_stopped",
		// The observability layer: stage histograms and the Prometheus view.
		"queue_wait_ms", "batch_wait_ms", "exec_ms",
		"GET /metrics", "version=0.0.4", "openei_serving_exec_ms", "tail_threshold_ms",
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("docs/METRICS.md does not document %q", want)
		}
	}
	tracing, err := os.ReadFile("docs/TRACING.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"X-Openei-Trace", "queue_wait", "batch_wait", "exec",
		"-trace-sample", "-trace-ring", "/ei_trace", "/gw_trace",
		"winner", "p99", "-debug-addr", "-block-profile-rate", "-mutex-profile-fraction",
	} {
		if !strings.Contains(string(tracing), want) {
			t.Errorf("docs/TRACING.md does not document %q", want)
		}
	}
}
