package obs

import (
	"strings"
	"testing"
	"time"
)

type promInner struct {
	Model string  `json:"model"`
	Count uint64  `json:"count"`
	P95MS float64 `json:"p95_ms"`
}

type promOuter struct {
	NodeID  string            `json:"node_id"`
	Depth   int               `json:"queue_depth"`
	Healthy bool              `json:"healthy"`
	Models  []promInner       `json:"serving"`
	Names   []string          `json:"names"`
	ByKey   map[string]uint64 `json:"by_key"`
	Nested  *promInner        `json:"nested,omitempty"`
}

func renderProm(t *testing.T, v any) string {
	t.Helper()
	var b strings.Builder
	WriteProm(&b, "test", v)
	return b.String()
}

func TestWritePromShapes(t *testing.T) {
	out := renderProm(t, promOuter{
		NodeID:  "edge-1",
		Depth:   7,
		Healthy: true,
		Models: []promInner{
			{Model: "a", Count: 3, P95MS: 1.5},
			{Model: "b", Count: 9, P95MS: 2.5},
		},
		Names: []string{"x", "y"},
		ByKey: map[string]uint64{"k1": 11},
	})
	for _, want := range []string{
		// node_id is a label on sibling samples, not a sample itself.
		`test_queue_depth{node_id="edge-1"} 7`,
		`test_healthy{node_id="edge-1"} 1`,
		// model-labeled struct slice.
		`test_serving_count{node_id="edge-1",model="a"} 3`,
		`test_serving_p95_ms{node_id="edge-1",model="b"} 2.5`,
		// []string becomes a count; maps label by key.
		`test_names_count{node_id="edge-1"} 2`,
		`test_by_key{node_id="edge-1",key="k1"} 11`,
		// count is a counter, p95 a gauge.
		"# TYPE test_serving_count counter",
		"# TYPE test_serving_p95_ms gauge",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "test_nested") {
		t.Fatalf("nil pointer rendered:\n%s", out)
	}
}

// TestPromExpositionParses is a minimal format validator: every
// non-comment line must be `name{labels} value` with a parseable value,
// every name referenced by a sample must have HELP/TYPE headers first.
func TestPromExpositionParses(t *testing.T) {
	out := renderProm(t, promOuter{NodeID: "n", Models: []promInner{{Model: "m", Count: 1}}})
	CheckPromFormat(t, out)
}

func TestWriteHistograms(t *testing.T) {
	var h Histogram
	for i := 0; i < 3; i++ {
		h.Observe(time.Millisecond)
	}
	h.Observe(1500 * time.Microsecond)
	h.Observe(1500 * time.Microsecond)
	var b strings.Builder
	WriteHistograms(&b, "test", []PromHistogram{
		{Name: "lat_ms", Label: "model", Value: "m", Snap: h.Snapshot()},
	})
	out := b.String()
	for _, want := range []string{
		"# TYPE test_lat_ms histogram",
		// One cumulative bucket per octave row, bounded at 2^k−1 µs.
		`test_lat_ms_bucket{model="m",le="0.015"} 0`,
		`test_lat_ms_bucket{model="m",le="0.511"} 0`,
		`test_lat_ms_bucket{model="m",le="1.023"} 3`,
		`test_lat_ms_bucket{model="m",le="2.047"} 5`,
		`test_lat_ms_bucket{model="m",le="+Inf"} 5`,
		`test_lat_ms_sum{model="m"} 6`,
		`test_lat_ms_count{model="m"} 5`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("histogram output missing %q:\n%s", want, out)
		}
	}
	if n := strings.Count(out, "test_lat_ms_bucket{"); n != histBuckets/histSub+1 {
		t.Fatalf("%d bucket lines, want one per octave row plus +Inf", n)
	}
	CheckPromFormat(t, out)
}
