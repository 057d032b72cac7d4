package xmldb

import (
	"encoding/xml"
	"fmt"
	"io"
	"strings"

	"repro/internal/relational"
)

// Parse reads an XML document, interning text values into dict. XML
// attributes become child nodes tagged "@"+name; comments and processing
// instructions are ignored.
func Parse(r io.Reader, dict *relational.Dict) (*Document, error) {
	dec := xml.NewDecoder(r)
	b := NewBuilder(dict)
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("xmldb: parsing XML: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			b.Open(t.Name.Local)
			for _, a := range t.Attr {
				b.Attr(a.Name.Local, a.Value)
			}
		case xml.CharData:
			b.Text(string(t))
		case xml.EndElement:
			b.Close()
		}
	}
	return b.Done()
}

// ParseString parses an XML document held in a string.
func ParseString(s string, dict *relational.Dict) (*Document, error) {
	return Parse(strings.NewReader(s), dict)
}

// Write serializes the document back to indented XML. Attribute nodes
// ("@"-tagged children) are emitted as real XML attributes.
func Write(w io.Writer, d *Document) error {
	return writeNode(w, d, d.Root(), 0)
}

func writeNode(w io.Writer, d *Document, id NodeID, depth int) error {
	n := d.Node(id)
	indent := strings.Repeat("  ", depth)
	var attrs strings.Builder
	var elems []NodeID
	for _, c := range d.Children(id) {
		if strings.HasPrefix(d.Tag(c), "@") {
			fmt.Fprintf(&attrs, " %s=%q", d.Tag(c)[1:], d.dict.String(d.Value(c)))
		} else {
			elems = append(elems, c)
		}
	}
	text := ""
	if n.Value != relational.Null && !IsSyntheticValue(d.dict, n.Value) {
		text = xmlEscape(d.dict.String(n.Value))
	}
	switch {
	case len(elems) == 0 && text == "":
		_, err := fmt.Fprintf(w, "%s<%s%s/>\n", indent, n.Tag, attrs.String())
		return err
	case len(elems) == 0:
		_, err := fmt.Fprintf(w, "%s<%s%s>%s</%s>\n", indent, n.Tag, attrs.String(), text, n.Tag)
		return err
	default:
		if _, err := fmt.Fprintf(w, "%s<%s%s>", indent, n.Tag, attrs.String()); err != nil {
			return err
		}
		if text != "" {
			if _, err := io.WriteString(w, text); err != nil {
				return err
			}
		}
		if _, err := io.WriteString(w, "\n"); err != nil {
			return err
		}
		for _, c := range elems {
			if err := writeNode(w, d, c, depth+1); err != nil {
				return err
			}
		}
		_, err := fmt.Fprintf(w, "%s</%s>\n", indent, n.Tag)
		return err
	}
}

func xmlEscape(s string) string {
	var b strings.Builder
	if err := xml.EscapeText(&b, []byte(s)); err != nil {
		return s
	}
	return b.String()
}
