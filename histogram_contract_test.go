package openei_test

import (
	"fmt"
	"math"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"openei/internal/alem"
	"openei/internal/hardware"
	"openei/internal/libei"
	"openei/internal/nn"
	"openei/internal/pkgmgr"
	"openei/internal/serving"
)

// promSeries is one labeled histogram series parsed from /metrics.
type promSeries struct {
	les   []string
	count uint64
	sum   float64
}

// parseHistograms collects every histogram series in a Prometheus text
// exposition, keyed "family{label}" with the le label stripped.
func parseHistograms(t *testing.T, text string) map[string]*promSeries {
	t.Helper()
	out := map[string]*promSeries{}
	for _, line := range strings.Split(text, "\n") {
		open, close := strings.IndexByte(line, '{'), strings.LastIndexByte(line, '}')
		if strings.HasPrefix(line, "#") || open < 0 || close < open {
			continue
		}
		name, labels, value := line[:open], line[open+1:close], strings.TrimSpace(line[close+1:])
		var le string
		if i := strings.Index(labels, `,le="`); i >= 0 {
			le = strings.TrimSuffix(labels[i+len(`,le="`):], `"`)
			labels = labels[:i]
		}
		var family, kind string
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if strings.HasSuffix(name, suffix) {
				family, kind = strings.TrimSuffix(name, suffix), suffix
			}
		}
		if family == "" {
			continue
		}
		key := family + "{" + labels + "}"
		s := out[key]
		if s == nil {
			s = &promSeries{}
			out[key] = s
		}
		switch kind {
		case "_bucket":
			s.les = append(s.les, le)
		case "_sum":
			v, err := strconv.ParseFloat(value, 64)
			if err != nil {
				t.Fatalf("bad _sum line %q", line)
			}
			s.sum = v
		case "_count":
			v, err := strconv.ParseUint(value, 10, 64)
			if err != nil {
				t.Fatalf("bad _count line %q", line)
			}
			s.count = v
		}
	}
	return out
}

// TestHistogramContract pins what the latency histograms promise on
// /metrics, served through a real node with two tenants: each of the
// eight openei_{serving,tenant}_{latency,queue_wait,batch_wait,exec}_ms
// families keeps its octave le bounds (2^k−1 µs, in milliseconds, then
// +Inf); every _count is the JSON completed (model) or served (tenant)
// count; and every latency _sum is the sum of its three stage _sums,
// because the stages partition enqueue→response exactly.
func TestHistogramContract(t *testing.T) {
	pkg, err := alem.PackageByName("eipkg")
	if err != nil {
		t.Fatal(err)
	}
	dev, err := hardware.ByName("rpi4")
	if err != nil {
		t.Fatal(err)
	}
	mgr := pkgmgr.New(pkg, dev)
	t.Cleanup(mgr.Close)
	if err := mgr.Load(nn.MustModel("ident", []int{4}, []nn.LayerSpec{{Type: "flatten"}}), pkgmgr.LoadOptions{}); err != nil {
		t.Fatal(err)
	}
	eng := serving.NewEngine(mgr, serving.Config{Replicas: 1, MaxBatch: 4, Tenants: []serving.TenantConfig{
		{Name: "gold", Priority: 10}, {Name: "bronze"},
	}})
	t.Cleanup(eng.Close)
	lib := libei.NewServer("edge-1", nil, mgr)
	lib.SetEngine(eng)
	node := httptest.NewServer(lib)
	t.Cleanup(node.Close)

	c := libei.NewClient(node.URL)
	for i := 0; i < 12; i++ {
		tenant := "gold"
		if i%3 == 0 {
			tenant = "bronze"
		}
		if resp, body := httpGet(t, node.URL+"/ei_algorithms/serving/infer?model=ident&input=0,1,0,0&tenant="+tenant); resp.StatusCode != 200 {
			t.Fatalf("infer as %s: %d %s", tenant, resp.StatusCode, body)
		}
	}
	m, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	_, text := httpGet(t, node.URL+"/metrics")
	hs := parseHistograms(t, text)

	var wantLE []string
	for k := 4; k <= 31; k++ {
		wantLE = append(wantLE, strconv.FormatFloat(float64(int64(1)<<k-1)/1000, 'g', -1, 64))
	}
	wantLE = append(wantLE, "+Inf")
	if wantLE[0] != "0.015" || wantLE[len(wantLE)-2] != "2.147483647e+06" {
		t.Fatalf("le bounds derived wrongly: %v", wantLE)
	}

	counts := map[string]uint64{`model="ident"`: 0}
	for _, ms := range m.Serving {
		counts[fmt.Sprintf("model=%q", ms.Model)] = ms.Completed
	}
	served := map[string]uint64{}
	for _, ts := range m.Tenants {
		counts[fmt.Sprintf("tenant=%q", ts.Tenant)] = ts.Served
		served[ts.Tenant] = ts.Served
	}
	if counts[`model="ident"`] != 12 || served["gold"] != 8 || served["bronze"] != 4 {
		t.Fatalf("JSON counts = %v, want 12 completed, 8 gold and 4 bronze served", counts)
	}
	for _, group := range []struct{ family, label string }{{"serving", "model"}, {"tenant", "tenant"}} {
		for label, want := range counts {
			if !strings.HasPrefix(label, group.label+"=") {
				continue
			}
			series := func(stage string) *promSeries {
				key := "openei_" + group.family + "_" + stage + "_ms{" + label + "}"
				s := hs[key]
				if s == nil {
					t.Fatalf("no histogram series %s in /metrics", key)
				}
				return s
			}
			var stageSum float64
			for _, stage := range []string{"latency", "queue_wait", "batch_wait", "exec"} {
				s := series(stage)
				if strings.Join(s.les, " ") != strings.Join(wantLE, " ") {
					t.Fatalf("%s %s{%s} le bounds changed:\n got %v\nwant %v", group.family, stage, label, s.les, wantLE)
				}
				if s.count != want {
					t.Fatalf("%s %s{%s} _count = %d, JSON says %d", group.family, stage, label, s.count, want)
				}
				if stage != "latency" {
					stageSum += s.sum
				}
			}
			if lat := series("latency").sum; math.Abs(lat-stageSum) > 1e-9*math.Max(1, lat) {
				t.Fatalf("%s latency{%s} _sum = %v ms, stage _sums add to %v ms", group.family, label, lat, stageSum)
			}
		}
	}
}
