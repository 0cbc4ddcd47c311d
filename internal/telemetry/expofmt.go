package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// This file implements a strict reader (and re-writer) for the
// Prometheus text exposition format version 0.0.4 — the format
// WriteText emits. It has two consumers: the CI metrics lint, which
// parses both daemons' /metrics output and fails on duplicate series,
// HELP/TYPE inconsistencies, or malformed samples; and the gateway's
// fleet federation, which scrapes each shard's /metrics, re-labels the
// parsed series with shard coordinates, and re-renders them on its own
// exposition page. Because the federated page is produced by
// WriteFamilies over parsed input, it is lint-clean by construction.

// Label is one label pair of a sample.
type Label struct {
	K, V string
}

// Sample is one series sample: the full sample name (including a
// _bucket/_sum/_count suffix for histogram series), its labels in
// source order, and the value.
type Sample struct {
	Name   string
	Labels []Label
	Value  float64
}

// labelKey renders the labels in sorted order — the identity used for
// duplicate detection and for stable re-rendering.
func (s *Sample) labelKey() string {
	if len(s.Labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), s.Labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].K < ls[j].K })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.K)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.V))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// Label returns the value of label k and whether it is present.
func (s *Sample) Label(k string) (string, bool) {
	for _, l := range s.Labels {
		if l.K == k {
			return l.V, true
		}
	}
	return "", false
}

// ParsedFamily is one metric family read back from exposition text.
type ParsedFamily struct {
	Name    string
	Help    string
	Type    string // counter, gauge, histogram, summary, untyped
	Samples []Sample
}

// WithLabels returns a copy of the family with the given label pairs
// (k1, v1, k2, v2, ...) appended to every sample — how the gateway
// stamps scraped shard series with their fleet coordinates. A label
// key already present on a sample is overwritten.
func (f *ParsedFamily) WithLabels(kv ...string) *ParsedFamily {
	if len(kv)%2 != 0 {
		panic("telemetry: odd label list")
	}
	out := &ParsedFamily{Name: f.Name, Help: f.Help, Type: f.Type,
		Samples: make([]Sample, len(f.Samples))}
	for i, s := range f.Samples {
		ls := make([]Label, 0, len(s.Labels)+len(kv)/2)
		for _, l := range s.Labels {
			overridden := false
			for j := 0; j < len(kv); j += 2 {
				if l.K == kv[j] {
					overridden = true
					break
				}
			}
			if !overridden {
				ls = append(ls, l)
			}
		}
		for j := 0; j < len(kv); j += 2 {
			ls = append(ls, Label{kv[j], kv[j+1]})
		}
		out.Samples[i] = Sample{Name: s.Name, Labels: ls, Value: s.Value}
	}
	return out
}

// Gauge returns the value of the family's single unlabeled (or only)
// sample, for pulling one scalar (an uptime gauge, say) out of a
// scraped page. ok is false when the family has no samples.
func (f *ParsedFamily) Gauge() (v float64, ok bool) {
	if len(f.Samples) == 0 {
		return 0, false
	}
	return f.Samples[0].Value, true
}

// validTypes enumerates the exposition metric types.
var validTypes = map[string]bool{
	"counter": true, "gauge": true, "histogram": true, "summary": true, "untyped": true,
}

// ParseExposition reads one text-format exposition page strictly. It
// returns the families in page order, or an error describing the first
// violation: malformed lines, unknown TYPE, HELP/TYPE after the
// family's samples began, conflicting duplicate HELP or TYPE lines,
// a family's samples split into non-contiguous blocks, a histogram
// bucket without an le label, or the same series (name + label set)
// appearing twice.
func ParseExposition(r io.Reader) ([]*ParsedFamily, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)

	fams := map[string]*ParsedFamily{}
	var order []*ParsedFamily
	seen := map[string]bool{} // family -> samples have begun
	closed := map[string]bool{}
	type seriesKey struct{ family, id string }
	series := map[seriesKey]bool{} // every series seen, by family
	cur := ""                      // family of the previous sample line
	lineNo := 0

	get := func(name string) *ParsedFamily {
		f := fams[name]
		if f == nil {
			f = &ParsedFamily{Name: name, Type: "untyped"}
			fams[name] = f
			order = append(order, f)
		}
		return f
	}

	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) >= 3 && (fields[1] == "HELP" || fields[1] == "TYPE") {
				name := fields[2]
				if seen[name] {
					return nil, fmt.Errorf("line %d: %s for %s after its samples", lineNo, fields[1], name)
				}
				if fields[1] == "HELP" {
					text := ""
					if len(fields) == 4 {
						text = fields[3]
					}
					if f := fams[name]; f != nil && f.Help != "" && f.Help != text {
						return nil, fmt.Errorf("line %d: conflicting HELP for %s: %q vs %q", lineNo, name, f.Help, text)
					}
					get(name).Help = text
				} else {
					if len(fields) != 4 {
						return nil, fmt.Errorf("line %d: TYPE needs a type", lineNo)
					}
					typ := fields[3]
					if !validTypes[typ] {
						return nil, fmt.Errorf("line %d: unknown metric type %q for %s", lineNo, typ, name)
					}
					if f := fams[name]; f != nil && f.Type != "untyped" && f.Type != typ {
						return nil, fmt.Errorf("line %d: conflicting TYPE for %s: %s vs %s", lineNo, name, f.Type, typ)
					}
					get(name).Type = typ
				}
				continue
			}
			continue // free-form comment
		}

		s, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		famName := familyOf(s.Name, fams)
		if cur != "" && cur != famName {
			closed[cur] = true
		}
		if closed[famName] {
			return nil, fmt.Errorf("line %d: samples of %s are not contiguous", lineNo, famName)
		}
		cur = famName
		f := get(famName)
		seen[famName] = true
		if f.Type == "histogram" && strings.HasSuffix(s.Name, "_bucket") {
			if _, ok := s.Label("le"); !ok {
				return nil, fmt.Errorf("line %d: histogram bucket %s without le label", lineNo, s.Name)
			}
		}
		key := seriesKey{famName, s.Name + s.labelKey()}
		if series[key] {
			return nil, fmt.Errorf("line %d: duplicate series %s", lineNo, key.id)
		}
		series[key] = true
		f.Samples = append(f.Samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return order, nil
}

// familyOf resolves a sample name to its family: exact match first,
// then the histogram/summary suffix conventions against declared
// families, then the bare name.
func familyOf(name string, fams map[string]*ParsedFamily) string {
	if f := fams[name]; f != nil && f.Type != "untyped" && f.Type != "histogram" && f.Type != "summary" {
		return name
	}
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, suffix)
		if base == name {
			continue
		}
		if f := fams[base]; f != nil && (f.Type == "histogram" || f.Type == "summary") {
			return base
		}
	}
	return name
}

// parseSample parses `name{k="v",...} value [timestamp]`.
func parseSample(line string) (Sample, error) {
	var s Sample
	i := 0
	for i < len(line) && isNameChar(line[i], i == 0) {
		i++
	}
	if i == 0 {
		return s, fmt.Errorf("malformed sample %q: no metric name", line)
	}
	s.Name = line[:i]
	rest := line[i:]
	if strings.HasPrefix(rest, "{") {
		end, ls, err := parseLabels(rest)
		if err != nil {
			return s, fmt.Errorf("sample %s: %w", s.Name, err)
		}
		s.Labels = ls
		rest = rest[end:]
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return s, fmt.Errorf("sample %s: want value [timestamp], got %q", s.Name, strings.TrimSpace(rest))
	}
	v, err := parseValue(fields[0])
	if err != nil {
		return s, fmt.Errorf("sample %s: %w", s.Name, err)
	}
	s.Value = v
	if len(fields) == 2 {
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			return s, fmt.Errorf("sample %s: bad timestamp %q", s.Name, fields[1])
		}
	}
	return s, nil
}

func isNameChar(c byte, first bool) bool {
	switch {
	case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		return true
	case c >= '0' && c <= '9':
		return !first
	}
	return false
}

// parseLabels parses a {k="v",...} block starting at s[0] == '{' and
// returns the index one past the closing brace.
func parseLabels(s string) (end int, ls []Label, err error) {
	i := 1
	for {
		for i < len(s) && (s[i] == ' ' || s[i] == ',') {
			i++
		}
		if i < len(s) && s[i] == '}' {
			return i + 1, ls, nil
		}
		start := i
		for i < len(s) && isNameChar(s[i], i == start) {
			i++
		}
		if i == start || i >= len(s) || s[i] != '=' {
			return 0, nil, fmt.Errorf("malformed label block %q", s)
		}
		k := s[start:i]
		i++ // '='
		if i >= len(s) || s[i] != '"' {
			return 0, nil, fmt.Errorf("label %s: unquoted value", k)
		}
		i++
		var b strings.Builder
		for i < len(s) && s[i] != '"' {
			if s[i] == '\\' && i+1 < len(s) {
				i++
				switch s[i] {
				case 'n':
					b.WriteByte('\n')
				case '\\', '"':
					b.WriteByte(s[i])
				default:
					b.WriteByte('\\')
					b.WriteByte(s[i])
				}
			} else {
				b.WriteByte(s[i])
			}
			i++
		}
		if i >= len(s) {
			return 0, nil, fmt.Errorf("label %s: unterminated value", k)
		}
		i++ // closing '"'
		ls = append(ls, Label{k, b.String()})
	}
}

func parseValue(v string) (float64, error) {
	switch v {
	case "+Inf", "Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, fmt.Errorf("bad value %q", v)
	}
	return f, nil
}

// WriteFamilies renders parsed families back into exposition text, in
// slice order. Together with ParseExposition it round-trips WriteText
// output; the gateway uses it to emit the federated page.
func WriteFamilies(w io.Writer, fams []*ParsedFamily) error {
	for _, f := range fams {
		if f.Help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.Name, f.Help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.Name, f.Type); err != nil {
			return err
		}
		for i := range f.Samples {
			s := &f.Samples[i]
			if _, err := fmt.Fprintf(w, "%s%s %s\n", s.Name, s.labelKey(), ftoa(s.Value)); err != nil {
				return err
			}
		}
	}
	return nil
}

// MergeFamilies folds extra families into base: a family whose name is
// new is appended; one matching an existing family's name and type has
// its samples appended to it. A type conflict drops the extra family
// and reports it in the returned list — federation must never corrupt
// the gateway's own exposition. Families from extra are copied, never
// mutated, so persistent scrape state can be merged on every render;
// base families may gain samples in place.
func MergeFamilies(base, extra []*ParsedFamily) (merged []*ParsedFamily, dropped []string) {
	byName := make(map[string]*ParsedFamily, len(base))
	merged = append(merged, base...)
	for _, f := range base {
		byName[f.Name] = f
	}
	for _, f := range extra {
		if have := byName[f.Name]; have != nil {
			if have.Type != f.Type {
				dropped = append(dropped, f.Name)
				continue
			}
			have.Samples = append(have.Samples, f.Samples...)
			continue
		}
		cp := &ParsedFamily{Name: f.Name, Help: f.Help, Type: f.Type,
			Samples: append([]Sample(nil), f.Samples...)}
		byName[f.Name] = cp
		merged = append(merged, cp)
	}
	return merged, dropped
}
