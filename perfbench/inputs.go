package main

import (
	"fmt"

	"xrtree/internal/datagen"
	"xrtree/internal/xmldoc"
)

// sizeWindow is an accepted range for the number of size-tag elements a
// generated corpus holds.
type sizeWindow struct{ lo, hi int }

// spec is one workload: a corpus of the paper's §6 on which every phase
// runs. The two corpora are the paper's two regimes: employee/name nests
// employees in employees, so ancestors overlap and stab lists fill;
// paper/author has no nesting at all.
type spec struct {
	name      string
	anc, desc string // the joined tags
	sizeTag   string
	// The join and probe corpus, and the serving corpus, numbered with
	// serveGap; each with its accepted size.
	join, serve         func(seed int64) (*xmldoc.Document, error)
	joinSize, serveSize sizeWindow
	// serveSel is the ancestor selectivity of the served join; it leaves
	// enough free leaf slots for every insert of a 60-second run.
	serveSel float64
}

// The Department generator is a capped branching process, so the element
// count of one draw varies by ±20% between seeds, and join times follow it;
// the Conference generator varies by about ±8%. Each corpus is therefore
// redrawn, with sub-seeds derived from the run seed, until its size-tag
// count falls in a ±2.5% window around the median over 60 seeds. The seed
// still picks every element's place; the window only fixes the input size,
// so runs with different seeds stay comparable.
var specs = []spec{
	{
		// The configuration datagen.PaperCorpora uses at scale 1.
		name: "nested", anc: "employee", desc: "name", sizeTag: "employee",
		join: func(seed int64) (*xmldoc.Document, error) {
			return datagen.Department(datagen.DeptConfig{Seed: seed, DocID: 1, Departments: 40, Employees: 25})
		},
		serve: func(seed int64) (*xmldoc.Document, error) {
			return datagen.Department(datagen.DeptConfig{Seed: seed, DocID: 1, Departments: 20, Employees: 25, PositionGap: serveGap})
		},
		joinSize: sizeWindow{38500, 40500}, serveSize: sizeWindow{18500, 20000}, serveSel: 0.02,
	},
	{
		name: "flat", anc: "paper", desc: "author", sizeTag: "author",
		// Four times the paper's scale-1 configuration: the flat index
		// then outgrows the pool about as far as the nested one does, and
		// set-up takes long enough to time.
		join: func(seed int64) (*xmldoc.Document, error) {
			return datagen.Conference(datagen.ConfConfig{Seed: seed, DocID: 2, Conferences: 240, Papers: 40})
		},
		serve: func(seed int64) (*xmldoc.Document, error) {
			return datagen.Conference(datagen.ConfConfig{Seed: seed, DocID: 2, Conferences: 60, Papers: 40, PositionGap: serveGap})
		},
		joinSize: sizeWindow{28500, 29900}, serveSize: sizeWindow{7000, 7400}, serveSel: 0.1,
	},
}

func specNamed(name string) *spec {
	for i := range specs {
		if specs[i].name == name {
			return &specs[i]
		}
	}
	return nil
}

// maxRedraws bounds the search for an in-window draw; at least one draw in
// five lands in each window.
const maxRedraws = 200

func subSeed(seed int64, stream, attempt int) int64 {
	return seed*1_000_003 + int64(stream)*10_007 + int64(attempt)
}

// redraw calls gen with successive sub-seeds until the count of tag in the
// result lies in w.
func redraw(seed int64, stream int, tag string, w sizeWindow, gen func(seed int64) (*xmldoc.Document, error)) (*xmldoc.Document, error) {
	for attempt := 0; attempt < maxRedraws; attempt++ {
		doc, err := gen(subSeed(seed, stream, attempt))
		if err != nil {
			return nil, err
		}
		if n := len(doc.ElementsByTag(tag)); n >= w.lo && n <= w.hi {
			return doc, nil
		}
	}
	return nil, fmt.Errorf("no %s count in [%d, %d] after %d draws", tag, w.lo, w.hi, maxRedraws)
}

// corpus returns the join and probe corpus of s.
func (s *spec) corpus(seed int64) (datagen.Corpus, error) {
	doc, err := redraw(seed, 1, s.sizeTag, s.joinSize, s.join)
	if err != nil {
		return datagen.Corpus{}, fmt.Errorf("%s corpus: %w", s.name, err)
	}
	return datagen.Corpus{Name: s.anc + "/" + s.desc, Doc: doc, AncestorTag: s.anc, DescendantTag: s.desc}, nil
}

// serveGap is the region-numbering gap of the serving corpus. Between two
// adjacent positions p and p+serveGap lie serveGap-1 free positions, room
// for new leaf elements inside existing regions.
const serveGap = 32

// serveCorpus returns the serving corpus of s, numbered with the wide gap
// inserts need.
func (s *spec) serveCorpus(seed int64) (*xmldoc.Document, error) {
	doc, err := redraw(seed, 3, s.sizeTag, s.serveSize, s.serve)
	if err != nil {
		return nil, fmt.Errorf("%s serving corpus: %w", s.name, err)
	}
	return doc, nil
}
