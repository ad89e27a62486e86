package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"xrtree/internal/join"
	"xrtree/internal/metrics"
	"xrtree/internal/xmldoc"
)

// span is one recorded interval around a call into a layer. Spans of one
// operation share Trace, the id of the operation's root span; a root span
// has Parent 0. Times are nanoseconds since the recorder's epoch.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Trace  int64  `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run writes them out. It is
// owned by one goroutine; concurrent clients each get their own.
type recorder struct {
	epoch   time.Time
	next    int64
	limit   int
	spans   []span
	dropped int64
}

// spanLimit caps the spans one recorder keeps, so a hot loop of short
// operations cannot grow memory without bound; later spans are still
// measured but only counted.
const spanLimit = 50_000

func newRecorder(epoch time.Time, idBase int64) *recorder {
	return &recorder{epoch: epoch, next: idBase, limit: spanLimit}
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// add stores a finished span and returns its id.
func (r *recorder) add(name string, parent, trace, start, end int64) int64 {
	id := r.reserve()
	r.addWithID(id, name, parent, trace, start, end)
	return id
}

// reserve returns an id for a root span whose children are recorded before
// it ends.
func (r *recorder) reserve() int64 {
	r.next++
	return r.next
}

// addWithID stores a finished span under a reserved id.
func (r *recorder) addWithID(id int64, name string, parent, trace, start, end int64) {
	if trace == 0 {
		trace = id
	}
	if len(r.spans) < r.limit {
		r.spans = append(r.spans, span{ID: id, Parent: parent, Trace: trace, Name: name, Start: start, End: end})
	} else {
		r.dropped++
	}
}

// interval is a [start, end) span of time in nanoseconds.
type interval struct{ start, end int64 }

// selfTime is the part of parent not covered by any child. Children may
// nest or overlap each other and may stick out of the parent; only their
// union inside the parent is subtracted.
func selfTime(parent interval, children []interval) int64 {
	cs := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start < parent.start {
			c.start = parent.start
		}
		if c.end > parent.end {
			c.end = parent.end
		}
		if c.end > c.start {
			cs = append(cs, c)
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].start < cs[j].start })
	var covered int64
	curStart, curEnd := int64(0), int64(-1)
	for _, c := range cs {
		if c.start > curEnd {
			if curEnd > curStart {
				covered += curEnd - curStart
			}
			curStart, curEnd = c.start, c.end
		} else if c.end > curEnd {
			curEnd = c.end
		}
	}
	if curEnd > curStart {
		covered += curEnd - curStart
	}
	return parent.end - parent.start - covered
}

// writeSpans writes every recorder's spans as JSON lines to path, after a
// header line with the dropped-span count.
func writeSpans(path string, recs ...*recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	var dropped int64
	for _, r := range recs {
		dropped += r.dropped
	}
	if err := enc.Encode(map[string]int64{"dropped_spans": dropped}); err != nil {
		f.Close()
		return err
	}
	for _, r := range recs {
		for i := range r.spans {
			if err := enc.Encode(&r.spans[i]); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// joinTrace collects the core child spans of one traced join.
type joinTrace struct {
	rec       *recorder
	root      int64 // reserved id of the join span
	children  []interval
	ancProbes int64
}

func (t *joinTrace) begin() {
	t.root = t.rec.reserve()
	t.children = t.children[:0]
	t.ancProbes = 0
}

func (t *joinTrace) child(name string, start int64) {
	end := t.rec.now()
	t.rec.add(name, t.root, t.root, start, end)
	t.children = append(t.children, interval{start, end})
}

// coveredNS is the time the join spent inside core calls.
func (t *joinTrace) coveredNS() int64 {
	var sum int64
	for _, c := range t.children {
		sum += c.end - c.start
	}
	return sum
}

// timedXR wraps join.XRTreeSource and records every call into core as a
// child span of the running join. The embedded source supplies PrefetchGE,
// so join.XRStack still finds the prefetch hook and runs the same path.
// Iterator steps after a Scan or SeekGE are not wrapped: timing each
// element would cost more than the step, so leaf scanning counts as join
// self time.
type timedXR struct {
	join.XRTreeSource
	t *joinTrace
}

var (
	_ join.AncestorSeeker = timedXR{}
	_ join.PrefetchSeeker = timedXR{}
)

func (s timedXR) Scan(c *metrics.Counters) (join.Iterator, error) {
	start := s.t.rec.now()
	it, err := s.XRTreeSource.Scan(c)
	s.t.child("core.Scan", start)
	return it, err
}

func (s timedXR) SeekGE(key uint32, c *metrics.Counters) (join.Iterator, error) {
	start := s.t.rec.now()
	it, err := s.XRTreeSource.SeekGE(key, c)
	s.t.child("core.SeekGE", start)
	return it, err
}

func (s timedXR) AppendAncestors(dst []xmldoc.Element, sd, minStart uint32, c *metrics.Counters) ([]xmldoc.Element, error) {
	start := s.t.rec.now()
	out, err := s.XRTreeSource.AppendAncestors(dst, sd, minStart, c)
	s.t.child("core.AppendAncestors", start)
	s.t.ancProbes++
	return out, err
}
