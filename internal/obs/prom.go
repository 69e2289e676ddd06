package obs

import (
	"bufio"
	"fmt"
	"io"
	"regexp"
	"strconv"
	"strings"
)

// This file bridges the registry to the Prometheus text exposition format
// (version 0.0.4), so `synts serve` can expose /metrics to any scraper
// without importing a client library. Counters map to counters
// (`synts_<name>_total`), gauges to gauges, and histograms to summaries
// with quantile labels. ValidatePrometheusText is a small in-repo grammar
// check the tests use in place of a real scraper.

// promName sanitises a dotted metric name into the Prometheus name
// alphabet ([a-zA-Z0-9_:], not starting with a digit) under the synts_
// namespace.
func promName(name string) string {
	var b strings.Builder
	b.WriteString("synts_")
	for _, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
			b.WriteRune(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

func promFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus writes the registry's current state in the Prometheus
// text exposition format. Families are emitted in sorted order so the
// payload is deterministic for a deterministic metric set.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	s := r.Snapshot()

	for _, name := range sortedNames(s.Counters) {
		fam := promName(name) + "_total"
		fmt.Fprintf(bw, "# TYPE %s counter\n%s %d\n", fam, fam, s.Counters[name])
	}
	for _, name := range sortedNames(s.Gauges) {
		fam := promName(name)
		fmt.Fprintf(bw, "# TYPE %s gauge\n%s %s\n", fam, fam, promFloat(s.Gauges[name]))
	}
	for _, name := range sortedNames(s.Histograms) {
		h := s.Histograms[name]
		fam := promName(name)
		fmt.Fprintf(bw, "# TYPE %s summary\n", fam)
		for _, q := range []struct {
			q string
			v float64
		}{{"0.5", h.P50}, {"0.95", h.P95}, {"0.99", h.P99}} {
			fmt.Fprintf(bw, "%s{quantile=\"%s\"} %s\n", fam, q.q, promFloat(q.v))
		}
		fmt.Fprintf(bw, "%s_sum %s\n", fam, promFloat(h.Sum))
		fmt.Fprintf(bw, "%s_count %d\n", fam, h.Count)
	}
	return bw.Flush()
}

// ValidatePrometheusText checks a payload against the text exposition
// grammar (version 0.0.4): well-formed TYPE/HELP comments, legal metric
// and label names, properly quoted/escaped label values, float sample
// values — and, stricter than the format requires, that every sample
// belongs to a family declared by a preceding # TYPE line (the bridge
// always declares, so an undeclared sample means a writer bug).
func ValidatePrometheusText(payload []byte) error {
	// Compiled here, not at package init: every synts process links obs,
	// and only tests validate.
	nameRe := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	typeRe := regexp.MustCompile(`^(counter|gauge|histogram|summary|untyped)$`)
	labelRe := regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
	families := map[string]string{} // family -> type
	lines := strings.Split(string(payload), "\n")
	for i, line := range lines {
		lineNo := i + 1
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 2 {
				continue // free-form comment
			}
			switch fields[1] {
			case "TYPE":
				if len(fields) != 4 {
					return fmt.Errorf("line %d: malformed TYPE comment %q", lineNo, line)
				}
				name, typ := fields[2], fields[3]
				if !nameRe.MatchString(name) {
					return fmt.Errorf("line %d: bad metric name %q in TYPE", lineNo, name)
				}
				if !typeRe.MatchString(typ) {
					return fmt.Errorf("line %d: bad metric type %q", lineNo, typ)
				}
				if _, dup := families[name]; dup {
					return fmt.Errorf("line %d: duplicate TYPE for %q", lineNo, name)
				}
				families[name] = typ
			case "HELP":
				if len(fields) < 3 {
					return fmt.Errorf("line %d: malformed HELP comment %q", lineNo, line)
				}
				if !nameRe.MatchString(fields[2]) {
					return fmt.Errorf("line %d: bad metric name %q in HELP", lineNo, fields[2])
				}
			}
			continue
		}
		name, rest, err := splitPromSample(line, labelRe)
		if err != nil {
			return fmt.Errorf("line %d: %w", lineNo, err)
		}
		if !nameRe.MatchString(name) {
			return fmt.Errorf("line %d: bad metric name %q", lineNo, name)
		}
		if familyOf(name, families) == "" {
			return fmt.Errorf("line %d: sample %q has no preceding # TYPE declaration", lineNo, name)
		}
		fields := strings.Fields(rest)
		if len(fields) < 1 || len(fields) > 2 {
			return fmt.Errorf("line %d: want 'value [timestamp]' after name, got %q", lineNo, rest)
		}
		// ParseFloat accepts the format's special values (+Inf, -Inf, NaN).
		if _, err := strconv.ParseFloat(fields[0], 64); err != nil {
			return fmt.Errorf("line %d: bad sample value %q", lineNo, fields[0])
		}
		if len(fields) == 2 {
			if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
				return fmt.Errorf("line %d: bad timestamp %q", lineNo, fields[1])
			}
		}
	}
	if len(families) == 0 {
		return fmt.Errorf("no metric families declared")
	}
	return nil
}

// familyOf resolves a sample name to its declared family, accounting for
// the summary/histogram child suffixes.
func familyOf(name string, families map[string]string) string {
	if _, ok := families[name]; ok {
		return name
	}
	for _, suffix := range []string{"_sum", "_count", "_bucket", "_total"} {
		base := strings.TrimSuffix(name, suffix)
		if base == name {
			continue
		}
		if typ, ok := families[base]; ok {
			if suffix == "_bucket" && typ != "histogram" {
				continue
			}
			return base
		}
	}
	return ""
}

// splitPromSample splits a sample line into the metric name and the
// remainder after the optional label block, validating the label names
// with labelRe.
func splitPromSample(line string, labelRe *regexp.Regexp) (name, rest string, err error) {
	brace := strings.IndexByte(line, '{')
	space := strings.IndexByte(line, ' ')
	if brace < 0 || (space >= 0 && space < brace) {
		if space < 0 {
			return "", "", fmt.Errorf("sample %q has no value", line)
		}
		return line[:space], line[space+1:], nil
	}
	name = line[:brace]
	i := brace + 1
	for {
		// label name
		j := i
		for j < len(line) && line[j] != '=' {
			j++
		}
		if j >= len(line) {
			return "", "", fmt.Errorf("unterminated label block in %q", line)
		}
		if !labelRe.MatchString(line[i:j]) {
			return "", "", fmt.Errorf("bad label name %q", line[i:j])
		}
		// quoted value
		if j+1 >= len(line) || line[j+1] != '"' {
			return "", "", fmt.Errorf("label %q value not quoted", line[i:j])
		}
		k := j + 2
		for k < len(line) {
			if line[k] == '\\' {
				if k+1 >= len(line) {
					return "", "", fmt.Errorf("dangling escape in %q", line)
				}
				switch line[k+1] {
				case '\\', '"', 'n':
				default:
					return "", "", fmt.Errorf("bad escape \\%c in %q", line[k+1], line)
				}
				k += 2
				continue
			}
			if line[k] == '"' {
				break
			}
			k++
		}
		if k >= len(line) {
			return "", "", fmt.Errorf("unterminated label value in %q", line)
		}
		k++
		if k < len(line) && line[k] == ',' {
			i = k + 1
			continue
		}
		if k < len(line) && line[k] == '}' {
			if k+1 >= len(line) || line[k+1] != ' ' {
				return "", "", fmt.Errorf("missing value after label block in %q", line)
			}
			return name, line[k+2:], nil
		}
		return "", "", fmt.Errorf("malformed label block in %q", line)
	}
}
