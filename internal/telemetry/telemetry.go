// Package telemetry is a zero-dependency metrics and health-probe toolkit
// for the streaming service: counters, gauges and log₂-bucketed histograms
// with lock-free atomic hot paths (0 allocs per observation), exported in
// Prometheus text exposition format, plus liveness/readiness probes.
//
// Design constraints, in order:
//
//  1. The hot path is the ingest/apply pipeline: an observation is a
//     handful of uncontended atomic adds, never a lock, never an
//     allocation, never a map lookup. All instruments are resolved once at
//     wiring time and held as struct fields by the instrumented code.
//  2. Instruments are nil-safe: observing on a nil *Counter, *Gauge or
//     *Histogram is a no-op, so a pipeline built without a telemetry
//     registry pays one predictable branch per observation and nothing
//     else (the "compiled-out" recorder BenchmarkIngestTelemetryOff in
//     internal/stream measures).
//  3. Exposition is boring, valid Prometheus text format — HELP/TYPE per
//     family, cumulative le buckets, _sum/_count — parseable by the real
//     Prometheus and by this package's own ParseExposition (which the CI
//     smoke test and swload's scraper use).
//
// Metric names are validated at registration: snake_case, counters end in
// _total, histograms carry a unit suffix. A name that breaks the
// convention panics at wiring time — misnamed metrics are bugs, and wiring
// runs at boot, not on the hot path.
package telemetry

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Label is one metric label pair. Labels are fixed at registration — there
// is deliberately no dynamic WithLabelValues on the hot path.
type Label struct {
	Name  string
	Value string
}

// L is shorthand for constructing a Label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// MetricType enumerates the exposition TYPE of a family.
type MetricType string

const (
	TypeCounter   MetricType = "counter"
	TypeGauge     MetricType = "gauge"
	TypeHistogram MetricType = "histogram"
)

// FamilyInfo describes one registered metric family; the metric-name lint
// test iterates these.
type FamilyInfo struct {
	Name string
	Help string
	Type MetricType
}

// child is one label-distinct member of a family.
type child struct {
	labels []Label
	ctr    *Counter       // TypeCounter
	gauge  *Gauge         // TypeGauge
	fn     func() float64 // TypeCounter/TypeGauge polled at scrape
	hist   *Histogram     // TypeHistogram
}

type family struct {
	name     string
	help     string
	typ      MetricType
	children []*child
	byKey    map[string]*child
}

// Registry holds metric families and renders them in Prometheus text
// format. Registration (Counter, Gauge, Histogram, ...) is get-or-create:
// the same name and label set returns the same instrument, so independent
// components can share an instrument without coordinating. Registration
// panics on a name that breaks Prometheus conventions or conflicts with an
// existing family's type — both are wiring bugs, caught at boot.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// validName enforces snake_case: ^[a-z][a-z0-9_]*$ with no double or
// trailing underscores.
func validName(name string) bool {
	if name == "" || name[0] < 'a' || name[0] > 'z' {
		return false
	}
	prevUnderscore := false
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z' || c >= '0' && c <= '9':
			prevUnderscore = false
		case c == '_':
			if prevUnderscore {
				return false
			}
			prevUnderscore = true
		default:
			return false
		}
	}
	return !prevUnderscore
}

// histogramUnits are the unit suffixes a histogram name must carry — the
// quantity being distributed must be readable off the name.
var histogramUnits = []string{"_seconds", "_bytes", "_edges", "_records"}

// checkName validates naming conventions for a family. Exported logic is
// shared with the lint test via CheckMetricName.
func checkName(name string, typ MetricType) error {
	if !validName(name) {
		return fmt.Errorf("telemetry: metric name %q is not snake_case", name)
	}
	switch typ {
	case TypeCounter:
		if !strings.HasSuffix(name, "_total") {
			return fmt.Errorf("telemetry: counter %q must end in _total", name)
		}
	case TypeGauge:
		if strings.HasSuffix(name, "_total") {
			return fmt.Errorf("telemetry: gauge %q must not end in _total", name)
		}
	case TypeHistogram:
		ok := false
		for _, u := range histogramUnits {
			if strings.HasSuffix(name, u) {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("telemetry: histogram %q must end in a unit suffix (%s)",
				name, strings.Join(histogramUnits, ", "))
		}
	}
	return nil
}

// CheckMetricName reports whether a (name, type) pair satisfies the
// registry's naming conventions; the lint test runs it over every family
// of a fully-wired registry.
func CheckMetricName(name string, typ MetricType) error { return checkName(name, typ) }

// labelKey serializes a label set into a map key. Labels are sorted so the
// same set in any order resolves to the same child.
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	for _, l := range labels {
		b.WriteString(l.Name)
		b.WriteByte(1)
		b.WriteString(l.Value)
		b.WriteByte(2)
	}
	return b.String()
}

func sortLabels(labels []Label) []Label {
	out := make([]Label, len(labels))
	copy(out, labels)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// register resolves (or creates) the family and child for a registration.
func (r *Registry) register(name, help string, typ MetricType, labels []Label) *child {
	if err := checkName(name, typ); err != nil {
		panic(err)
	}
	for _, l := range labels {
		if !validName(l.Name) {
			panic(fmt.Errorf("telemetry: label name %q is not snake_case", l.Name))
		}
	}
	labels = sortLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ, byKey: make(map[string]*child)}
		r.families[name] = f
	} else if f.typ != typ {
		panic(fmt.Errorf("telemetry: metric %q re-registered as %s (was %s)", name, typ, f.typ))
	}
	key := labelKey(labels)
	c, ok := f.byKey[key]
	if !ok {
		c = &child{labels: labels}
		f.byKey[key] = c
		f.children = append(f.children, c)
	}
	return c
}

// Counter registers (or fetches) a counter.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	c := r.register(name, help, TypeCounter, labels)
	if c.ctr == nil && c.fn == nil {
		c.ctr = &Counter{}
	}
	return c.ctr
}

// CounterFunc registers a counter whose value is polled at scrape time —
// for monotone quantities another subsystem already tracks (WAL bytes,
// checkpoint passes).
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	c := r.register(name, help, TypeCounter, labels)
	c.fn = fn
	c.ctr = nil
}

// Gauge registers (or fetches) a gauge.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	c := r.register(name, help, TypeGauge, labels)
	if c.gauge == nil && c.fn == nil {
		c.gauge = &Gauge{}
	}
	return c.gauge
}

// GaugeFunc registers a gauge polled at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	c := r.register(name, help, TypeGauge, labels)
	c.fn = fn
	c.gauge = nil
}

// Histogram registers (or fetches) a duration histogram: observations are
// recorded in nanoseconds and exposed in seconds. The name must end in
// _seconds.
func (r *Registry) Histogram(name, help string, labels ...Label) *Histogram {
	if !strings.HasSuffix(name, "_seconds") {
		panic(fmt.Errorf("telemetry: duration histogram %q must end in _seconds (use ValueHistogram for other units)", name))
	}
	c := r.register(name, help, TypeHistogram, labels)
	if c.hist == nil {
		c.hist = &Histogram{seconds: true}
	}
	return c.hist
}

// ValueHistogram registers (or fetches) a histogram over raw int64 values
// (batch sizes, byte counts); the name must carry the unit suffix.
func (r *Registry) ValueHistogram(name, help string, labels ...Label) *Histogram {
	if strings.HasSuffix(name, "_seconds") {
		panic(fmt.Errorf("telemetry: %q is a duration histogram; use Histogram", name))
	}
	c := r.register(name, help, TypeHistogram, labels)
	if c.hist == nil {
		c.hist = &Histogram{}
	}
	return c.hist
}

// Families lists the registered families sorted by name.
func (r *Registry) Families() []FamilyInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]FamilyInfo, 0, len(r.families))
	for _, f := range r.families {
		out = append(out, FamilyInfo{Name: f.name, Help: f.help, Type: f.typ})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// escapeLabelValue escapes a label value per the exposition format.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, `\"`+"\n") {
		return v
	}
	var b strings.Builder
	for _, c := range v {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}

// writeLabels renders {a="x",b="y"} (empty string for no labels); extra is
// an optional extra pair appended last (the histogram le label).
func writeLabels(b *strings.Builder, labels []Label, extraName, extraValue string) {
	if len(labels) == 0 && extraName == "" {
		return
	}
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	if extraName != "" {
		if len(labels) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraName)
		b.WriteString(`="`)
		b.WriteString(extraValue)
		b.WriteByte('"')
	}
	b.WriteByte('}')
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// WritePrometheus renders every family in Prometheus text exposition
// format (version 0.0.4), families sorted by name.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	var b strings.Builder
	for _, f := range fams {
		b.Reset()
		b.WriteString("# HELP ")
		b.WriteString(f.name)
		b.WriteByte(' ')
		b.WriteString(strings.ReplaceAll(f.help, "\n", " "))
		b.WriteString("\n# TYPE ")
		b.WriteString(f.name)
		b.WriteByte(' ')
		b.WriteString(string(f.typ))
		b.WriteByte('\n')
		for _, c := range f.children {
			switch {
			case f.typ == TypeHistogram:
				c.hist.write(&b, f.name, c.labels)
			case c.fn != nil:
				b.WriteString(f.name)
				writeLabels(&b, c.labels, "", "")
				b.WriteByte(' ')
				b.WriteString(formatFloat(c.fn()))
				b.WriteByte('\n')
			case f.typ == TypeCounter:
				b.WriteString(f.name)
				writeLabels(&b, c.labels, "", "")
				b.WriteByte(' ')
				b.WriteString(strconv.FormatInt(c.ctr.Value(), 10))
				b.WriteByte('\n')
			default:
				b.WriteString(f.name)
				writeLabels(&b, c.labels, "", "")
				b.WriteByte(' ')
				b.WriteString(strconv.FormatInt(c.gauge.Value(), 10))
				b.WriteByte('\n')
			}
		}
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

// Handler serves GET /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}
