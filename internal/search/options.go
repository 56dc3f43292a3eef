package search

import (
	"context"

	"treesim/internal/editdist"
	"treesim/internal/obs"
)

// Functional options for the index and query surface. NewIndex takes
// IndexOptions; KNN and Range take QueryOptions. Concrete filter values
// (*BiBranch, *Histo, ...) are themselves IndexOptions, so the common case
// reads NewIndex(ts, NewBiBranch()) with no wrapper; interface-typed
// filters go through WithFilter.

// indexConfig collects what the index options select.
type indexConfig struct {
	filter        Filter
	cost          editdist.CostModel
	shards        int
	refineWorkers int
	memtableSize  int
	compactAfter  int
}

// IndexOption configures NewIndex and LoadIndex.
type IndexOption interface {
	applyIndex(*indexConfig)
}

// indexOption adapts a plain function to IndexOption.
type indexOption func(*indexConfig)

func (f indexOption) applyIndex(c *indexConfig) { f(c) }

// applyIndexOpts folds the options over the defaults. Nil options are
// skipped, so NewIndex(ts, nil) keeps its historical meaning: no filter,
// i.e. the sequential scan.
func applyIndexOpts(opts []IndexOption) indexConfig {
	cfg := indexConfig{cost: defaultCost()}
	for _, o := range opts {
		if o == nil {
			continue
		}
		o.applyIndex(&cfg)
	}
	return cfg
}

// WithFilter selects the index's filter (nil means None, the sequential
// scan). Concrete filter values can also be passed directly as options.
func WithFilter(f Filter) IndexOption {
	return indexOption(func(c *indexConfig) { c.filter = f })
}

// WithCostModel sets the refine stage's edit cost model. The filters'
// lower bounds are proved for unit costs; a custom model is sound for
// filtering as long as every operation costs at least 1.
func WithCostModel(m editdist.CostModel) IndexOption {
	return indexOption(func(c *indexConfig) {
		if m != nil {
			c.cost = m
		}
	})
}

// WithShards sets how many dataset shards a single query's filter stage
// fans out over. 0 (the default) means GOMAXPROCS at query time; 1 forces
// the sequential path. The shard count never changes query results — see
// the shard-count invariance tests.
func WithShards(s int) IndexOption {
	return indexOption(func(c *indexConfig) { c.shards = s })
}

// WithRefineWorkers bounds the index-wide worker pool that queries borrow
// goroutines from: refine-stage verifications and filter-shard helpers
// across all concurrent queries share it, so one heavy query cannot
// monopolize the machine. 0 (the default) means GOMAXPROCS.
func WithRefineWorkers(n int) IndexOption {
	return indexOption(func(c *indexConfig) { c.refineWorkers = n })
}

// WithMemtableSize sets how many inserts the mutable memtable segment
// accepts before it is sealed into an immutable segment (0 means the
// store default, segstore.DefaultMemtableSize). Smaller memtables bound
// the per-query cost of the weaker memtable filter at the price of more
// segments between compactions.
func WithMemtableSize(n int) IndexOption {
	return indexOption(func(c *indexConfig) { c.memtableSize = n })
}

// WithCompactionThreshold sets how many sealed segments accumulate before
// a seal triggers a background compaction (0 means the store default,
// segstore.DefaultCompactAfter; negative disables automatic compaction —
// call Index.Compact explicitly).
func WithCompactionThreshold(n int) IndexOption {
	return indexOption(func(c *indexConfig) { c.compactAfter = n })
}

// The concrete filters are their own index options.

func (f *BiBranch) applyIndex(c *indexConfig)      { c.filter = f }
func (f *Histo) applyIndex(c *indexConfig)         { c.filter = f }
func (f *Seq) applyIndex(c *indexConfig)           { c.filter = f }
func (f *None) applyIndex(c *indexConfig)          { c.filter = f }
func (f *PivotBiBranch) applyIndex(c *indexConfig) { c.filter = f }
func (f *VPBiBranch) applyIndex(c *indexConfig)    { c.filter = f }

// queryConfig collects what the query options select.
type queryConfig struct {
	explain **Explain
	span    *obs.Span
}

// QueryOption configures one KNN or Range call.
type QueryOption interface {
	applyQuery(*queryConfig)
}

// queryOption adapts a plain function to QueryOption.
type queryOption func(*queryConfig)

func (f queryOption) applyQuery(c *queryConfig) { f(c) }

// applyQueryOpts folds the options, skipping nils.
func applyQueryOpts(opts []QueryOption) queryConfig {
	var cfg queryConfig
	for _, o := range opts {
		if o == nil {
			continue
		}
		o.applyQuery(&cfg)
	}
	return cfg
}

// WithExplain asks the query to produce its per-query filter-quality
// analysis into *dst. *dst is set only when the query completes (nil on
// error); the results are identical with or without the option — the
// analysis costs one extra O(n) pass over already-computed bounds.
func WithExplain(dst **Explain) QueryOption {
	return queryOption(func(c *queryConfig) { c.explain = dst })
}

// WithTrace hangs the query's stage spans (filter, refine, per-shard
// children) off sp instead of the span carried by the context.
func WithTrace(sp *obs.Span) QueryOption {
	return queryOption(func(c *queryConfig) { c.span = sp })
}

// trace resolves the span the query's stage children attach to.
func (c *queryConfig) trace(ctx context.Context) *obs.Span {
	if c.span != nil {
		return c.span
	}
	return obs.FromContext(ctx)
}
