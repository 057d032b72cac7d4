package structix

import (
	"repro/internal/cachehook"
	"repro/internal/relational"
	"repro/internal/wcoj"
	"repro/internal/xmldb"
)

// Edge returns (building if needed) the P-C relation of parentTag/childTag:
// a two-column table PC[p/c] over (parentTag, childTag) holding one
// (parent value, child value) row per document edge from a parentTag node
// to a childTag child — the paper's "P-C relation considered as a
// relational table", with at most |childTag nodes| rows because every node
// has one parent. Duplicates are kept; the atom's sorted projections drop
// them. The build polls ctl.Check every buildCheckNodes nodes and abandons
// with cachehook.ErrBuildCancelled.
//
// The returned atom has no cache observer: its projections are private to
// this edge's catalog entry, counted in its bytes, and dropped with it.
// Every call stamps the entry's recency: a join run resolves each edge once
// and keeps the table until it ends.
func (x *Index) Edge(parentTag, childTag string, ctl cachehook.BuildControl) (*wcoj.TableAtom, error) {
	return x.edges.Get([2]string{parentTag, childTag}, ctl, cachehook.Spec[*wcoj.TableAtom]{
		Label: func() string { return "edge[" + parentTag + "/" + childTag + "]" },
		Build: func(check func() bool) (*wcoj.TableAtom, error) {
			return buildEdgeTable(x.doc, parentTag, childTag, check)
		},
		// The pair table (16 B a row) plus the four one-target projections
		// a two-column table can build, each at most one key, one value and
		// one group offset (20 B) a row.
		Bytes: func(a *wcoj.TableAtom) int64 { return int64(a.Table().Len())*(16+4*20) + 48 },
	})
}

func buildEdgeTable(doc *xmldb.Document, parentTag, childTag string, check func() bool) (*wcoj.TableAtom, error) {
	schema, err := relational.NewSchema(parentTag, childTag)
	if err != nil {
		return nil, err
	}
	t := relational.NewTable("PC["+parentTag+"/"+childTag+"]", schema)
	children := doc.NodesByTag(childTag)
	t.Grow(len(children))
	for i, child := range children {
		if check != nil && i%buildCheckNodes == 0 && check() {
			return nil, cachehook.ErrBuildCancelled
		}
		p := doc.Parent(child)
		if p == xmldb.NoNode || doc.Tag(p) != parentTag {
			continue
		}
		t.MustAppend(doc.Value(p), doc.Value(child))
	}
	return wcoj.NewTableAtom(t), nil
}
