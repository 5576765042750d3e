package main

import (
	"reflect"
	"testing"
)

func TestPick(t *testing.T) {
	all := sections(0)
	for _, tc := range []struct {
		only string
		want []string // nil: a usage error
	}{
		{"", []string{"fig1", "1", "2", "ipc", "xfer", "extras"}},
		{"1", []string{"1"}},
		{"xfer", []string{"xfer"}},
		{"cache", []string{"cache"}},
		{"smp", []string{"smp"}},
		{"bogus", nil},
		{"Table1", nil},
	} {
		picked, err := pick(all, tc.only)
		var got []string
		for _, s := range picked {
			got = append(got, s.name)
		}
		if (err != nil) != (tc.want == nil) || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("-only %q: got %v, %v; want %v", tc.only, got, err, tc.want)
		}
	}
}
