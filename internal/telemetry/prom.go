package telemetry

// Prometheus text exposition of a Registry: the bridge between the
// simulation's in-process metrics and the scrape-based telemetry
// pipelines real control planes are built on (the paper's placement
// loop, and the Telemetry Aware Scheduling line of work, consume
// exactly this format). PromRenderer (promrender.go) renders it; the
// ocd daemon serves it at /metrics.
//
// Mapping:
//
//   - every metric becomes <namespace>_<sanitized name>, with the
//     scope attached as a `scope` label, so one family groups the same
//     signal across scopes (per-cell child scopes become label values,
//     not new names);
//   - counters get the conventional _total suffix;
//   - histograms expand to the _bucket (cumulative, with le labels,
//     +Inf last), _sum and _count series;
//   - output is deterministic: families ordered by name, samples by
//     scope, so golden tests and diff-based scrape debugging work.

import (
	"sort"
	"strconv"
	"strings"
)

// promName sanitizes a metric or scope-derived token into a valid
// Prometheus metric-name fragment: every run of invalid characters
// collapses to one underscore ("util.v8-large" → "util_v8_large").
func promName(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	lastUnderscore := false
	for i, r := range s {
		valid := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(r >= '0' && r <= '9' && i > 0)
		if valid {
			b.WriteRune(r)
			lastUnderscore = r == '_'
			continue
		}
		if !lastUnderscore {
			b.WriteByte('_')
			lastUnderscore = true
		}
	}
	out := strings.TrimRight(b.String(), "_")
	if out == "" {
		return "_"
	}
	return out
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// formatFloat renders a sample value the way Prometheus clients do:
// shortest round-trippable decimal.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// sortedKeys returns m's keys sorted.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
