package obs

import (
	"fmt"
	"io"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"time"
)

// This file renders Prometheus text exposition format 0.0.4 from the
// very snapshot structs the JSON metrics endpoints marshal. There is no
// second registry to keep in sync: WriteProm walks the struct via its
// `json` tags, so every field that appears in /ei_metrics or /gw_metrics
// appears under /metrics with a derived name, and a field added to one
// view shows up in the other automatically. The root metrics-parity test
// asserts this property over the live endpoints.
//
// Mapping rules (documented in docs/METRICS.md):
//   - numeric and bool fields    → one sample named ns_<json path joined by _>
//   - fields tagged with an identifying key (model, tenant, url, node_id,
//     step, key) whose value is a string or int → labels on their siblings
//   - other string fields        → <path>_info{<field>="value"} 1
//   - []string fields            → <path>_count = len
//   - maps                       → key becomes the "key" label
//   - slices of unlabeled structs → synthetic idx label
//
// Histograms (the HDR latency/stage histograms) are rendered separately
// by WriteHistograms from Histogram snapshots, since raw buckets are
// deliberately absent from the JSON view.

// labelKeys are json tags treated as identifying labels rather than
// sample values when their field is a string or integer.
var labelKeys = map[string]bool{
	"model":   true,
	"tenant":  true,
	"url":     true,
	"node_id": true,
	"step":    true,
	"key":     true,
}

// counterNames marks json leaf names whose samples are monotonic
// counters; everything else is exposed as a gauge.
var counterNames = map[string]bool{
	"enqueued": true, "completed": true, "rejected_overload": true,
	"expired_deadline": true, "errors": true, "batches": true,
	"early_exit": true, "count": true,
	"admitted": true, "shed_throttle": true, "shed_queue": true,
	"served": true,
	"routed": true, "retried": true, "shed": true, "failed": true,
	"hedged": true, "upstream_overloaded": true, "upstream_deadline": true,
	"deadline_stopped": true, "cache_hits": true, "cache_misses": true,
	"scale_events": true, "requests": true, "transport_errors": true,
	"fails": true, "breaker_trips": true,
	"started": true, "kept": true, "dropped": true, "span_overflow": true,
}

type promLabel struct{ k, v string }

type promSample struct {
	labels []promLabel
	value  string
}

type promFamily struct {
	name    string
	typ     string
	samples []promSample
}

type promDoc struct {
	order    []string
	families map[string]*promFamily
}

func (d *promDoc) add(name, typ string, labels []promLabel, value string) {
	f, ok := d.families[name]
	if !ok {
		f = &promFamily{name: name, typ: typ}
		d.families[name] = f
		d.order = append(d.order, name)
	}
	f.samples = append(f.samples, promSample{labels: labels, value: value})
}

// WriteProm renders v — a JSON-tagged metrics snapshot — in Prometheus
// exposition format 0.0.4 under the given namespace prefix.
func WriteProm(w io.Writer, ns string, v any) {
	d := &promDoc{families: map[string]*promFamily{}}
	walkProm(d, ns, nil, reflect.ValueOf(v))
	d.write(w)
}

func (d *promDoc) write(w io.Writer) {
	for _, name := range d.order {
		f := d.families[name]
		fmt.Fprintf(w, "# HELP %s Field %s of the JSON metrics document.\n", f.name, strings.TrimPrefix(f.name, "openei_"))
		fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ)
		for _, s := range f.samples {
			io.WriteString(w, f.name)
			writeLabels(w, s.labels)
			io.WriteString(w, " ")
			io.WriteString(w, s.value)
			io.WriteString(w, "\n")
		}
	}
}

func writeLabels(w io.Writer, labels []promLabel) {
	if len(labels) == 0 {
		return
	}
	io.WriteString(w, "{")
	for i, l := range labels {
		if i > 0 {
			io.WriteString(w, ",")
		}
		fmt.Fprintf(w, "%s=%q", l.k, escapeLabel(l.v))
	}
	io.WriteString(w, "}")
}

// escapeLabel handles the exposition-format label escapes; %q supplies
// the quote and backslash escaping, newlines are the remaining case.
func escapeLabel(v string) string {
	return strings.ReplaceAll(v, "\n", `\n`)
}

func sanitizeName(s string) string {
	var b strings.Builder
	for i, r := range s {
		ok := r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (i > 0 && r >= '0' && r <= '9')
		if ok {
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}

func walkProm(d *promDoc, path string, labels []promLabel, rv reflect.Value) {
	for rv.Kind() == reflect.Pointer || rv.Kind() == reflect.Interface {
		if rv.IsNil() {
			return
		}
		rv = rv.Elem()
	}
	switch rv.Kind() {
	case reflect.Struct:
		walkStruct(d, path, labels, rv)
	case reflect.Map:
		keys := make([]string, 0, rv.Len())
		for _, k := range rv.MapKeys() {
			if k.Kind() == reflect.String {
				keys = append(keys, k.String())
			}
		}
		sort.Strings(keys)
		for _, k := range keys {
			kl := append(append([]promLabel{}, labels...), promLabel{"key", k})
			walkProm(d, path, kl, rv.MapIndex(reflect.ValueOf(k)))
		}
	case reflect.Slice, reflect.Array:
		walkSlice(d, path, labels, rv)
	case reflect.Bool:
		v := "0"
		if rv.Bool() {
			v = "1"
		}
		d.add(path, "gauge", labels, v)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		d.add(path, leafType(path), labels, strconv.FormatInt(rv.Int(), 10))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		d.add(path, leafType(path), labels, strconv.FormatUint(rv.Uint(), 10))
	case reflect.Float32, reflect.Float64:
		d.add(path, leafType(path), labels, formatFloat(rv.Float()))
	case reflect.String:
		// A bare string leaf (outside a struct) has no field name to
		// carry the value; render presence only.
		d.add(path+"_info", "gauge", append(append([]promLabel{}, labels...), promLabel{"value", rv.String()}), "1")
	}
}

func walkStruct(d *promDoc, path string, labels []promLabel, rv reflect.Value) {
	rt := rv.Type()
	// First pass: identifying fields become labels for every sibling.
	own := append([]promLabel{}, labels...)
	for i := 0; i < rt.NumField(); i++ {
		f := rt.Field(i)
		tag := jsonName(f)
		if tag == "" || !labelKeys[tag] {
			continue
		}
		fv := rv.Field(i)
		switch fv.Kind() {
		case reflect.String:
			own = append(own, promLabel{sanitizeName(tag), fv.String()})
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			own = append(own, promLabel{sanitizeName(tag), strconv.FormatInt(fv.Int(), 10)})
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			own = append(own, promLabel{sanitizeName(tag), strconv.FormatUint(fv.Uint(), 10)})
		}
	}
	// Second pass: remaining fields become samples (or recurse).
	for i := 0; i < rt.NumField(); i++ {
		f := rt.Field(i)
		tag := jsonName(f)
		if tag == "" {
			continue
		}
		fv := rv.Field(i)
		if labelKeys[tag] {
			switch fv.Kind() {
			case reflect.String, reflect.Int, reflect.Int8, reflect.Int16,
				reflect.Int32, reflect.Int64, reflect.Uint, reflect.Uint8,
				reflect.Uint16, reflect.Uint32, reflect.Uint64:
				continue // consumed as a label
			}
		}
		name := path + "_" + sanitizeName(tag)
		switch fv.Kind() {
		case reflect.String:
			d.add(name+"_info", "gauge",
				append(append([]promLabel{}, own...), promLabel{sanitizeName(tag), fv.String()}), "1")
		default:
			walkProm(d, name, own, fv)
		}
	}
}

func walkSlice(d *promDoc, path string, labels []promLabel, rv reflect.Value) {
	n := rv.Len()
	if n > 0 && rv.Index(0).Kind() == reflect.String {
		// []string: expose the count; the values themselves are not
		// metric material (e.g. the node's advertised model list).
		d.add(path+"_count", "gauge", labels, strconv.Itoa(n))
		return
	}
	for i := 0; i < n; i++ {
		ev := rv.Index(i)
		el := labels
		if ev.Kind() == reflect.Struct && !hasLabelField(ev.Type()) {
			el = append(append([]promLabel{}, labels...), promLabel{"idx", strconv.Itoa(i)})
		}
		walkProm(d, path, el, ev)
	}
}

func hasLabelField(rt reflect.Type) bool {
	for i := 0; i < rt.NumField(); i++ {
		if labelKeys[jsonName(rt.Field(i))] {
			return true
		}
	}
	return false
}

func jsonName(f reflect.StructField) string {
	if f.PkgPath != "" { // unexported
		return ""
	}
	tag := f.Tag.Get("json")
	if tag == "-" {
		return ""
	}
	if idx := strings.IndexByte(tag, ','); idx >= 0 {
		tag = tag[:idx]
	}
	if tag == "" {
		tag = strings.ToLower(f.Name)
	}
	return tag
}

// leafType classifies a sample name: counter when the json leaf tag (any
// underscore-delimited suffix, so "upstream_overloaded" and plain "shed"
// both resolve) is in counterNames, gauge otherwise.
func leafType(path string) string {
	for i := 0; i < len(path); i++ {
		if path[i] == '_' && counterNames[path[i+1:]] {
			return "counter"
		}
	}
	if counterNames[path] {
		return "counter"
	}
	return "gauge"
}

func formatFloat(f float64) string {
	return strconv.FormatFloat(f, 'g', -1, 64)
}

// PromHistogram is one histogram series for WriteHistograms: a family
// name under the namespace, the identifying label (model or tenant), and
// the distribution.
type PromHistogram struct {
	Name         string
	Label, Value string
	Snap         HistogramSnapshot
}

// WriteHistograms renders histogram snapshots as Prometheus histogram
// families named ns_<Name>, one cumulative bucket per octave row (le in
// milliseconds) plus +Inf, _sum and _count. Series sharing a Name are
// grouped under one TYPE header.
func WriteHistograms(w io.Writer, ns string, hs []PromHistogram) {
	seen := map[string]bool{}
	for i := range hs {
		family := hs[i].Name
		if seen[family] {
			continue
		}
		seen[family] = true
		name := ns + "_" + family
		fmt.Fprintf(w, "# HELP %s Stage latency distribution (milliseconds).\n", name)
		fmt.Fprintf(w, "# TYPE %s histogram\n", name)
		for j := range hs {
			if hs[j].Name == family {
				writeOneHistogram(w, name, &hs[j])
			}
		}
	}
}

func writeOneHistogram(w io.Writer, name string, h *PromHistogram) {
	base := []promLabel{{sanitizeName(h.Label), h.Value}}
	bucket := func(le string, n uint64) {
		io.WriteString(w, name+"_bucket")
		writeLabels(w, []promLabel{base[0], {"le", le}})
		fmt.Fprintf(w, " %d\n", n)
	}
	var cum uint64
	for i, n := range h.Snap.Buckets {
		cum += n
		if i%histSub == histSub-1 { // last sub-bucket of an octave row
			bucket(formatFloat(float64(histUpperBound(i))/float64(time.Millisecond)), cum)
		}
	}
	bucket("+Inf", h.Snap.Count)
	io.WriteString(w, name+"_sum")
	writeLabels(w, base)
	fmt.Fprintf(w, " %s\n", formatFloat(float64(h.Snap.Sum)/float64(time.Millisecond)))
	io.WriteString(w, name+"_count")
	writeLabels(w, base)
	fmt.Fprintf(w, " %d\n", h.Snap.Count)
}
