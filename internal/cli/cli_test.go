package cli

import (
	"reflect"
	"testing"
)

func TestParseRelSpec(t *testing.T) {
	name, attrs, err := ParseRelSpec("R1( B , D )")
	if err != nil {
		t.Fatal(err)
	}
	if name != "R1" || !reflect.DeepEqual(attrs, []string{"B", "D"}) {
		t.Errorf("got %s%v", name, attrs)
	}
	for _, bad := range []string{"", "R", "R()", "(a)", "R(a,)", "R(a", "R a)"} {
		if _, _, err := ParseRelSpec(bad); err == nil {
			t.Errorf("ParseRelSpec(%q) accepted", bad)
		}
	}
}

func TestParseTableSpec(t *testing.T) {
	name, path, err := ParseTableSpec("orders=data/orders.csv")
	if err != nil {
		t.Fatal(err)
	}
	if name != "orders" || path != "data/orders.csv" {
		t.Errorf("got %q %q", name, path)
	}
	for _, bad := range []string{"", "noequals", "=x", "x="} {
		if _, _, err := ParseTableSpec(bad); err == nil {
			t.Errorf("ParseTableSpec(%q) accepted", bad)
		}
	}
}

func TestParseIntList(t *testing.T) {
	got, err := ParseIntList("2, 4,6")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []int{2, 4, 6}) {
		t.Errorf("got %v", got)
	}
	for _, bad := range []string{"", "a", "1,,2", "0", "-3"} {
		if _, err := ParseIntList(bad); err == nil {
			t.Errorf("ParseIntList(%q) accepted", bad)
		}
	}
}

func TestParseLimit(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want int
		ok   bool
	}{
		{"", 0, true}, {"0", 0, true}, {" 7 ", 7, true},
		{"-1", 0, false}, {"x", 0, false},
	} {
		got, err := ParseLimit(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ParseLimit(%q) = %d, %v", tc.in, got, err)
		}
	}
}

func TestFormatTable(t *testing.T) {
	got := FormatTable([]string{"a", "long_header", "z"}, [][]string{{"xxxxx", "1", "last"}, {"y", "22", ""}})
	want := "a      long_header  z\n" +
		"xxxxx  1            last\n" +
		"y      22           \n" +
		"(2 rows)\n"
	if got != want {
		t.Errorf("got:\n%s\nwant:\n%s", got, want)
	}
	if got := FormatTable([]string{"n"}, nil); got != "n\n(0 rows)\n" {
		t.Errorf("empty table = %q", got)
	}
}
