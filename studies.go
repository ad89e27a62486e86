package xrtree

// Auxiliary studies beyond the §6 join sweeps: the §3.3 stab-list size
// measurement, the §4 amortized update-cost claims (Theorems 1–2), and the
// §5 basic-operation cost claims (Theorems 3–4).

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"text/tabwriter"

	"xrtree/internal/datagen"
)

// StabStudyRow is one nesting level of the §3.3 stab-list size study.
type StabStudyRow struct {
	MaxNesting    int     // the generator's depth knob
	Elements      int     // indexed elements
	LeafPages     int     // backbone leaf pages
	StabEntries   int     // elements held in stab lists
	StabPages     int     // total stab-list pages
	AvgStabPages  float64 // mean chain length per internal node
	MaxStabPages  int     // longest chain
	StabLeafRatio float64 // stab pages / leaf pages (paper: <10% at depth>10)
}

// StabStudyConfig parameterizes RunStabListStudy.
type StabStudyConfig struct {
	Seed        int64
	Elements    int   // elements per corpus; default 20000
	Depths      []int // nesting depths to sweep; default {2,5,10,15,20}
	PageSize    int
	BufferPages int
	// DisableKeyChoice runs the §3.2 separator ablation variant.
	DisableKeyChoice bool
}

func (c *StabStudyConfig) defaults() {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Elements == 0 {
		c.Elements = 20000
	}
	if len(c.Depths) == 0 {
		c.Depths = []int{2, 5, 10, 15, 20}
	}
}

// RunStabListStudy reproduces the §3.3 measurement: build XR-trees over
// element sets of increasing nesting depth and report stab-list sizes. The
// paper's finding — a few pages per node on average, total well under the
// leaf-page count — should reproduce at every depth.
func RunStabListStudy(cfg StabStudyConfig) ([]StabStudyRow, error) {
	cfg.defaults()
	var rows []StabStudyRow
	for _, depth := range cfg.Depths {
		doc, err := datagen.Nested(datagen.NestedConfig{
			Seed: cfg.Seed, DocID: 1, Elements: cfg.Elements, MaxDepth: depth, DeepBias: 0.7,
		})
		if err != nil {
			return nil, err
		}
		store, err := NewMemStore(StoreOptions{PageSize: cfg.PageSize, BufferPages: cfg.BufferPages})
		if err != nil {
			return nil, err
		}
		set, err := store.IndexElements(doc.ElementsByTag("item"), IndexOptions{
			SkipList: true, SkipBTree: true, DisableKeyChoice: cfg.DisableKeyChoice,
		})
		if err != nil {
			store.Close()
			return nil, err
		}
		xr, err := set.XRTree()
		if err != nil {
			store.Close()
			return nil, err
		}
		space, err := xr.Space()
		if err != nil {
			store.Close()
			return nil, err
		}
		row := StabStudyRow{
			MaxNesting:   depth,
			Elements:     set.Len(),
			LeafPages:    space.LeafPages,
			StabEntries:  space.StabEntries,
			StabPages:    space.StabPages,
			AvgStabPages: space.AvgStabPages(),
			MaxStabPages: space.MaxStabPages,
		}
		if space.LeafPages > 0 {
			row.StabLeafRatio = float64(space.StabPages) / float64(space.LeafPages)
		}
		rows = append(rows, row)
		if err := store.Close(); err != nil {
			return nil, err
		}
	}
	return rows, nil
}

// FormatStabStudy renders the §3.3 study as a table.
func FormatStabStudy(w io.Writer, rows []StabStudyRow) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "max-nesting\telements\tleaf-pages\tstab-entries\tstab-pages\tavg/node\tmax/node\tstab/leaf")
	for _, r := range rows {
		fmt.Fprintf(tw, "%d\t%d\t%d\t%d\t%d\t%.2f\t%d\t%.1f%%\n",
			r.MaxNesting, r.Elements, r.LeafPages, r.StabEntries, r.StabPages,
			r.AvgStabPages, r.MaxStabPages, 100*r.StabLeafRatio)
	}
	return tw.Flush()
}

// UpdateStudyRow reports amortized update costs at one tree size.
type UpdateStudyRow struct {
	Elements        int
	Height          int
	LogFN           float64 // log_F N with F the observed fanout proxy
	InsertAccesses  float64 // mean page accesses per insert
	DeleteAccesses  float64 // mean page accesses per delete
	InsertWritesPhy float64 // mean physical writes per insert
}

// RunUpdateCostStudy exercises Theorems 1 and 2: the amortized page
// accesses of insert and delete stay O(log_F N) plus a small constant for
// stab-list maintenance.
func RunUpdateCostStudy(seed int64, sizes []int) ([]UpdateStudyRow, error) {
	if len(sizes) == 0 {
		sizes = []int{1000, 5000, 20000, 50000}
	}
	var rows []UpdateStudyRow
	for _, n := range sizes {
		doc, err := datagen.Nested(datagen.NestedConfig{
			Seed: seed, DocID: 1, Elements: n, MaxDepth: 12, DeepBias: 0.6,
		})
		if err != nil {
			return nil, err
		}
		els := doc.ElementsByTag("item")
		store, err := NewMemStore(StoreOptions{BufferPages: 256})
		if err != nil {
			return nil, err
		}
		set, err := store.IndexElements(els, IndexOptions{
			SkipList: true, SkipBTree: true,
		})
		if err != nil {
			store.Close()
			return nil, err
		}
		xr, err := set.XRTree()
		if err != nil {
			store.Close()
			return nil, err
		}

		// Insert cost: re-insert a 10% random sample after deleting it.
		rng := rand.New(rand.NewSource(seed))
		sample := rng.Perm(len(els))
		if len(sample) > len(els)/10+1 {
			sample = sample[:len(els)/10+1]
		}
		for _, i := range sample {
			if err := xr.Delete(els[i].Start); err != nil {
				store.Close()
				return nil, err
			}
		}
		var ins Stats
		store.AttachStats(&ins)
		for _, i := range sample {
			if err := xr.Insert(els[i]); err != nil {
				store.Close()
				return nil, err
			}
		}
		store.AttachStats(nil)

		var del Stats
		store.AttachStats(&del)
		for _, i := range sample {
			if err := xr.Delete(els[i].Start); err != nil {
				store.Close()
				return nil, err
			}
		}
		store.AttachStats(nil)
		// Restore for cleanliness (not measured).
		for _, i := range sample {
			if err := xr.Insert(els[i]); err != nil {
				store.Close()
				return nil, err
			}
		}

		ops := float64(len(sample))
		rows = append(rows, UpdateStudyRow{
			Elements:       xr.Len(),
			Height:         xr.Height(),
			LogFN:          math.Log(float64(xr.Len())) / math.Log(100),
			InsertAccesses: float64(ins.PageAccesses()) / ops,
			DeleteAccesses: float64(del.PageAccesses()) / ops,
		})
		if err := store.Close(); err != nil {
			return nil, err
		}
	}
	return rows, nil
}

// FormatUpdateStudy renders the §4 update-cost study.
func FormatUpdateStudy(w io.Writer, rows []UpdateStudyRow) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "elements\theight\tinsert pg/op\tdelete pg/op")
	for _, r := range rows {
		fmt.Fprintf(tw, "%d\t%d\t%.2f\t%.2f\n", r.Elements, r.Height, r.InsertAccesses, r.DeleteAccesses)
	}
	return tw.Flush()
}

// OpsStudyRow reports the basic-operation costs of §5 at one tree size.
type OpsStudyRow struct {
	Elements      int
	Height        int
	AncProbes     int
	AncAvgPages   float64 // mean page accesses per FindAncestors
	AncAvgResults float64
	DescProbes    int
	DescAvgPages  float64 // mean page accesses per FindDescendants
	DescAvgResult float64
}

// RunBasicOpsStudy exercises Theorems 3 and 4: FindAncestors costs
// O(log_F N + R) and FindDescendants O(log_F N + R/B) page accesses.
func RunBasicOpsStudy(seed int64, sizes []int, probes int) ([]OpsStudyRow, error) {
	if len(sizes) == 0 {
		sizes = []int{1000, 10000, 50000}
	}
	if probes <= 0 {
		probes = 500
	}
	var rows []OpsStudyRow
	for _, n := range sizes {
		doc, err := datagen.Nested(datagen.NestedConfig{
			Seed: seed, DocID: 1, Elements: n, MaxDepth: 14, DeepBias: 0.6,
		})
		if err != nil {
			return nil, err
		}
		els := doc.ElementsByTag("item")
		store, err := NewMemStore(StoreOptions{BufferPages: 256})
		if err != nil {
			return nil, err
		}
		set, err := store.IndexElements(els, IndexOptions{SkipList: true, SkipBTree: true})
		if err != nil {
			store.Close()
			return nil, err
		}
		xr, _ := set.XRTree()
		rng := rand.New(rand.NewSource(seed))
		maxPos := els[len(els)-1].End

		row := OpsStudyRow{Elements: xr.Len(), Height: xr.Height(), AncProbes: probes, DescProbes: probes}
		var ancPages, ancResults int64
		for i := 0; i < probes; i++ {
			var st Stats
			sd := uint32(rng.Intn(int(maxPos)) + 1)
			anc, err := xr.FindAncestors(sd, 0, &st)
			if err != nil {
				store.Close()
				return nil, err
			}
			ancPages += st.IndexNodeReads + st.LeafReads + st.StabPageReads
			ancResults += int64(len(anc))
		}
		row.AncAvgPages = float64(ancPages) / float64(probes)
		row.AncAvgResults = float64(ancResults) / float64(probes)

		var descPages, descResults int64
		for i := 0; i < probes; i++ {
			var st Stats
			e := els[rng.Intn(len(els))]
			des, err := xr.FindDescendants(e.Start, e.End, &st)
			if err != nil {
				store.Close()
				return nil, err
			}
			descPages += st.IndexNodeReads + st.LeafReads + st.StabPageReads
			descResults += int64(len(des))
		}
		row.DescAvgPages = float64(descPages) / float64(probes)
		row.DescAvgResult = float64(descResults) / float64(probes)
		rows = append(rows, row)
		if err := store.Close(); err != nil {
			return nil, err
		}
	}
	return rows, nil
}

// FormatOpsStudy renders the §5 basic-operations study.
func FormatOpsStudy(w io.Writer, rows []OpsStudyRow) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "elements\theight\tFindAnc pg/op\tavg R\tFindDesc pg/op\tavg R")
	for _, r := range rows {
		fmt.Fprintf(tw, "%d\t%d\t%.2f\t%.2f\t%.2f\t%.2f\n",
			r.Elements, r.Height, r.AncAvgPages, r.AncAvgResults, r.DescAvgPages, r.DescAvgResult)
	}
	return tw.Flush()
}
