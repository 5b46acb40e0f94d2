package main

// The references here are computed apart from the program: plain Go
// over the generated inputs, sharing no code with tcqd.

import (
	"fmt"
	"sort"
	"strconv"
)

// quote is one input tuple of the shared_filter and result_stream
// workloads: quotes/ticks (id int, sym string, price float, vol int).
type quote struct {
	id    int64
	sym   string
	price float64
	vol   int64
}

func (q quote) line(stream string) []byte {
	b := append([]byte(stream), ',')
	b = strconv.AppendInt(b, q.id, 10)
	b = append(b, ',')
	b = append(b, q.sym...)
	b = append(b, ',')
	b = strconv.AppendFloat(b, q.price, 'f', -1, 64)
	b = append(b, ',')
	b = strconv.AppendInt(b, q.vol, 10)
	return append(b, '\n')
}

// selection is one standing shared_filter query.
type selection struct {
	kind   int // selRange, selEq, selEqVol
	lo, hi float64
	sym    string
	vol    int64
}

const (
	selRange = iota // price >= lo AND price < hi
	selEq           // sym = 'sym'
	selEqVol        // sym = 'sym' AND vol >= vol
)

func (s selection) sql(stream string) string {
	switch s.kind {
	case selRange:
		return fmt.Sprintf("SELECT id FROM %s WHERE price >= %s AND price < %s", stream, fmtF(s.lo), fmtF(s.hi))
	case selEq:
		return fmt.Sprintf("SELECT id FROM %s WHERE sym = '%s'", stream, s.sym)
	default:
		return fmt.Sprintf("SELECT id FROM %s WHERE sym = '%s' AND vol >= %d", stream, s.sym, s.vol)
	}
}

// eval is the reference predicate evaluator.
func (s selection) eval(q quote) bool {
	switch s.kind {
	case selRange:
		return q.price >= s.lo && q.price < s.hi
	case selEq:
		return q.sym == s.sym
	default:
		return q.sym == s.sym && q.vol >= s.vol
	}
}

func fmtF(f float64) string { return strconv.FormatFloat(f, 'f', -1, 64) }

// matchSet compares one query's received ids (any order) with the
// expected ids (ascending). It returns the expected ids that are
// missing and the received ids that are extra or duplicated.
func matchSet(expected, got []int64) (missing []int64, extra []int64) {
	g := append([]int64(nil), got...)
	sort.Slice(g, func(i, j int) bool { return g[i] < g[j] })
	i, j := 0, 0
	for i < len(expected) || j < len(g) {
		switch {
		case j >= len(g) || (i < len(expected) && expected[i] < g[j]):
			missing = append(missing, expected[i])
			i++
		case i >= len(expected) || g[j] < expected[i]:
			extra = append(extra, g[j])
			j++
		default:
			i++
			j++
		}
	}
	return missing, extra
}

// ------------------------------------------------------------- window join

// jtuple is one window_join input: stocks (id int, sym int, price float)
// or news (id int, sym int, score int).
type jtuple struct {
	news  bool
	id    int64
	sym   int64
	price float64 // stocks only
	score int64   // news only
}

func (t jtuple) line() []byte {
	var b []byte
	if t.news {
		b = append(b, "news,"...)
	} else {
		b = append(b, "stocks,"...)
	}
	b = strconv.AppendInt(b, t.id, 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, t.sym, 10)
	b = append(b, ',')
	if t.news {
		b = strconv.AppendInt(b, t.score, 10)
	} else {
		b = strconv.AppendFloat(b, t.price, 'f', -1, 64)
	}
	return append(b, '\n')
}

// joinRef is a nested-loop join over per-stream sequence windows of
// width w: when a tuple arrives, it pairs with every tuple of the other
// stream among that stream's last w arrivals with the same sym. This is
// the set a window of WindowIs(s, t-w+1, t) on both streams admits.
type joinRef struct {
	w      int
	stocks []jtuple // arrival order; the window is the last w
	news   []jtuple
}

// match is one expected join result.
type match struct {
	stock, news jtuple
}

// arrive adds t and returns the matches it completes.
func (r *joinRef) arrive(t jtuple) []match {
	other := r.stocks
	if !t.news {
		other = r.news
	}
	var out []match
	for i := max(0, len(other)-r.w); i < len(other); i++ {
		o := other[i]
		if o.sym != t.sym {
			continue
		}
		if t.news {
			out = append(out, match{stock: o, news: t})
		} else {
			out = append(out, match{stock: t, news: o})
		}
	}
	if t.news {
		r.news = append(r.news, t)
	} else {
		r.stocks = append(r.stocks, t)
	}
	return out
}

// band is one window_join query's own filter on stocks.price.
type band struct{ lo, hi float64 }

func (b band) has(p float64) bool { return p >= b.lo && p < b.hi }

// ------------------------------------------------------------- key fold

// foldRef is the cluster_fold reference: per key, count and sum.
type foldRef map[string]*foldAgg

type foldAgg struct {
	count int64
	sum   float64
}

func (f foldRef) add(key string, v float64) {
	a := f[key]
	if a == nil {
		a = &foldAgg{}
		f[key] = a
	}
	a.count++
	a.sum += v
}

// diff compares a COLLECT result with the reference and returns how
// many keys disagree (missing, extra, or wrong count or sum).
func (f foldRef) diff(got map[string]foldAgg) (bad int, example string) {
	for k, want := range f {
		g, ok := got[k]
		if !ok || g.count != want.count || g.sum != want.sum {
			bad++
			if example == "" {
				example = fmt.Sprintf("key %s: got %+v want %+v", k, g, *want)
			}
		}
	}
	for k, g := range got {
		if _, ok := f[k]; !ok {
			bad++
			if example == "" {
				example = fmt.Sprintf("extra key %s: %+v", k, g)
			}
		}
	}
	return bad, example
}
