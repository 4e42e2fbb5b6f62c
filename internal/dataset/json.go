package dataset

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sort"
	"strings"

	"repro/internal/model"
	"repro/internal/propset"
)

// FileFormat is the on-disk JSON schema for BCC instances, usable with
// cmd/bccsolve and cmd/bccgen. Costs may be "inf" to exclude a classifier.
type FileFormat struct {
	Budget  float64      `json:"budget"`
	Queries []FileQuery  `json:"queries"`
	Costs   []FileCost   `json:"costs,omitempty"`
	Default *FileDefault `json:"default_cost,omitempty"`
}

// FileQuery is one query row.
type FileQuery struct {
	Props   []string `json:"props"`
	Utility float64  `json:"utility"`
}

// FileCost prices one classifier; Inf marks it impractical.
type FileCost struct {
	Props []string `json:"props"`
	Cost  float64  `json:"cost"`
	Inf   bool     `json:"inf,omitempty"`
}

// FileDefault sets the cost of unpriced classifiers: Cost plus PerProp
// times the classifier length.
type FileDefault struct {
	Cost    float64 `json:"cost"`
	PerProp float64 `json:"per_prop"`
}

// ToFormat renders an instance as the canonical on-disk FileFormat:
// queries in builder order, costs sorted by property names, only the
// explicitly enumerable costs (those of classifiers in CL). Write and
// the eval-suite fixtures (internal/eval) share it so the same instance
// always serializes to the same bytes.
func ToFormat(in *model.Instance) FileFormat {
	ff := FileFormat{Budget: in.Budget()}
	u := in.Universe()
	names := func(s propset.Set) []string {
		out := make([]string, s.Len())
		for i, id := range s {
			out[i] = u.Name(id)
		}
		return out
	}
	for _, q := range in.Queries() {
		ff.Queries = append(ff.Queries, FileQuery{Props: names(q.Props), Utility: q.Utility})
	}
	for _, c := range in.Classifiers() {
		cost := FileCost{Props: names(c.Props), Cost: c.Cost}
		if math.IsInf(cost.Cost, 1) {
			cost.Cost, cost.Inf = 0, true
		}
		ff.Costs = append(ff.Costs, cost)
	}
	sort.Slice(ff.Costs, func(i, j int) bool { return less(ff.Costs[i].Props, ff.Costs[j].Props) })
	return ff
}

// Write serializes an instance to JSON. Only explicitly enumerable costs
// (those of classifiers in CL) are written.
func Write(w io.Writer, in *model.Instance) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(ToFormat(in))
}

func less(a, b []string) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// Read parses a JSON instance.
func Read(r io.Reader) (*model.Instance, error) {
	var ff FileFormat
	if err := json.NewDecoder(r).Decode(&ff); err != nil {
		return nil, fmt.Errorf("dataset: decoding instance: %w", err)
	}
	return FromFormat(ff)
}

// FromFormat validates a decoded FileFormat and builds the instance.
// Utilities must be finite (a NaN or ±Inf utility silently corrupts every
// downstream greedy comparison) and costs must be non-negative numbers;
// an impractical classifier is expressed with the Inf flag, not a raw
// infinity. A property repeated inside one query and a query repeated in
// the file are both rejected: each is almost certainly a generator bug,
// and silently deduplicating (or silently merging utilities) would let it
// pass unnoticed.
//
// Property names are interned in file order, queries first, so IDs do
// not depend on anything but the file. Validation runs on the interned
// IDs as the builder takes each row; only when a row fails does
// formatError work out which rejection to report. ff is only read.
func FromFormat(ff FileFormat) (*model.Instance, error) {
	b := model.NewBuilderSize(len(ff.Queries), len(ff.Costs))
	u := b.Universe()
	var set propset.Set // scratch: AddQuerySet and SetCostSet keep no reference
	intern := func(names []string) propset.Set {
		set = set[:0]
		for _, name := range names {
			set = append(set, u.Intern(name))
		}
		slices.Sort(set)
		return set
	}
	rows, empty := 0, 0
	for _, q := range ff.Queries {
		if math.IsNaN(q.Utility) || math.IsInf(q.Utility, 0) {
			return nil, formatError(ff)
		}
		s := intern(q.Props)
		for j := 1; j < len(s); j++ {
			if s[j] == s[j-1] {
				return nil, formatError(ff)
			}
		}
		if len(s) == 0 {
			empty++
			continue
		}
		rows++
		b.AddQuerySet(s, q.Utility)
	}
	if empty > 1 || b.NumQueries() != rows {
		return nil, formatError(ff) // a query repeats an earlier one
	}
	for _, c := range ff.Costs {
		if !c.Inf && (math.IsNaN(c.Cost) || c.Cost < 0) {
			return nil, formatError(ff)
		}
	}
	for _, c := range ff.Costs {
		cost := c.Cost
		if c.Inf {
			cost = math.Inf(1)
		}
		b.SetCostSet(slices.Compact(intern(c.Props)), cost)
	}
	if d := ff.Default; d != nil {
		b.SetDefaultCost(func(s propset.Set) float64 {
			return d.Cost + d.PerProp*float64(s.Len())
		})
	}
	return b.Instance(ff.Budget)
}

// formatError returns the first of FromFormat's own rejections in file
// order: per query a non-finite utility, a repeated property or a
// repeat of an earlier query, then per cost row a NaN or negative cost.
// It compares names, not IDs, so it is FromFormat's error path only.
func formatError(ff FileFormat) error {
	seenQueries := make(map[string]int, len(ff.Queries))
	for i, q := range ff.Queries {
		if math.IsNaN(q.Utility) || math.IsInf(q.Utility, 0) {
			return fmt.Errorf("dataset: query %d (%v): utility %v is not finite", i, q.Props, q.Utility)
		}
		props := append([]string(nil), q.Props...)
		sort.Strings(props)
		var key strings.Builder
		for j, p := range props {
			if j > 0 && p == props[j-1] {
				return fmt.Errorf("dataset: query %d (%v): duplicate property %q", i, q.Props, p)
			}
			fmt.Fprintf(&key, "%d:%s", len(p), p)
		}
		if first, dup := seenQueries[key.String()]; dup {
			return fmt.Errorf("dataset: query %d (%v): duplicate of query %d", i, q.Props, first)
		}
		seenQueries[key.String()] = i
	}
	for i, c := range ff.Costs {
		if c.Inf {
			continue
		}
		if math.IsNaN(c.Cost) {
			return fmt.Errorf("dataset: cost %d (%v): cost is NaN", i, c.Props)
		}
		if c.Cost < 0 {
			return fmt.Errorf("dataset: cost %d (%v): cost %v is negative", i, c.Props, c.Cost)
		}
	}
	return errors.New("dataset: instance rejected") // unreachable: FromFormat saw a rejection
}

// ReadFile loads an instance from a JSON file.
func ReadFile(path string) (*model.Instance, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}

// WriteFile saves an instance to a JSON file.
func WriteFile(path string, in *model.Instance) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return Write(f, in)
}
