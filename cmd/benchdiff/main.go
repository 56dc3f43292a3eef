// Command benchdiff compares two benchmark reports (BENCH_filters.json
// from cmd/treesim-analyze, or any JSON report of numeric metrics) and
// prints per-metric deltas, so a perf change shows up as numbers rather
// than two JSON blobs to eyeball.
//
//	benchdiff BENCH_filters.json BENCH_filters.new.json
//	benchdiff -threshold 0.1 old.json new.json
//
// Reports are flattened to dotted keys (arrays of objects key by their
// "spec"/"filter"/"name" field when present, by index otherwise) and
// every numeric metric present in both files is compared. Any latency
// percentile key (containing "p99") that regressed by more than
// -threshold exits 3 — usable as an advisory CI gate. Metadata keys
// (timestamps, versions, seeds) are not numbers being measured and are
// skipped.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"text/tabwriter"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	threshold := fs.Float64("threshold", 0.20, "p99 regression tolerance as a fraction (0.20 = +20%)")
	all := fs.Bool("all", false, "print every compared metric, not only ones that changed")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: benchdiff [-threshold 0.2] OLD.json NEW.json")
		return 2
	}
	oldM, err := loadFlat(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(stderr, "benchdiff: %v\n", err)
		return 1
	}
	newM, err := loadFlat(fs.Arg(1))
	if err != nil {
		fmt.Fprintf(stderr, "benchdiff: %v\n", err)
		return 1
	}

	keys := make([]string, 0, len(oldM))
	for k := range oldM {
		if _, ok := newM[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)

	var regressions []string
	tw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\told\tnew\tdelta")
	shown := 0
	for _, k := range keys {
		ov, nv := oldM[k], newM[k]
		delta := "="
		changed := ov != nv
		if changed {
			if ov != 0 {
				delta = fmt.Sprintf("%+.1f%%", 100*(nv-ov)/ov)
			} else {
				delta = fmt.Sprintf("%+g", nv-ov)
			}
		}
		if changed || *all {
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\n", k, formatNum(ov), formatNum(nv), delta)
			shown++
		}
		if strings.Contains(k, "p99") && ov > 0 && nv > ov*(1+*threshold) {
			regressions = append(regressions,
				fmt.Sprintf("%s: %s -> %s (+%.1f%%, tolerance %.0f%%)",
					k, formatNum(ov), formatNum(nv), 100*(nv-ov)/ov, 100**threshold))
		}
	}
	tw.Flush()
	if shown == 0 {
		fmt.Fprintln(stdout, "no numeric metrics changed")
	}
	if only := len(oldM) + len(newM) - 2*len(keys); only > 0 {
		fmt.Fprintf(stdout, "(%d metrics present in only one report)\n", only)
	}
	if len(regressions) > 0 {
		fmt.Fprintf(stderr, "benchdiff: %d p99 regression(s):\n", len(regressions))
		for _, r := range regressions {
			fmt.Fprintf(stderr, "  %s\n", r)
		}
		return 3
	}
	return 0
}

func formatNum(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.4g", v)
}

// skipKeys are metadata leaves, not measured metrics.
var skipKeys = map[string]bool{
	"timestamp": true, "go_version": true, "seed": true, "qlog": true,
	"gomaxprocs": true,
}

func loadFlat(path string) (map[string]float64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc any
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	out := map[string]float64{}
	flatten("", doc, out)
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no numeric metrics found", path)
	}
	return out, nil
}

// flatten walks the decoded JSON, collecting numeric leaves under dotted
// keys. Array elements that are objects with a stable identity field
// ("spec", "filter", "name") key by it, so reports stay comparable when
// the element order changes.
func flatten(prefix string, v any, out map[string]float64) {
	switch x := v.(type) {
	case map[string]any:
		for k, child := range x {
			if prefix == "" && skipKeys[k] {
				continue
			}
			flatten(joinKey(prefix, k), child, out)
		}
	case []any:
		for i, child := range x {
			key := fmt.Sprintf("%d", i)
			if obj, ok := child.(map[string]any); ok {
				for _, id := range []string{"spec", "filter", "name"} {
					if s, ok := obj[id].(string); ok && s != "" {
						key = s
						break
					}
				}
			}
			flatten(joinKey(prefix, key), child, out)
		}
	case float64:
		out[prefix] = x
	}
}

func joinKey(prefix, k string) string {
	if prefix == "" {
		return k
	}
	return prefix + "." + k
}
