package main

import (
	"strings"
	"testing"
)

// TestCheckCounts: every size flag rejects a negative value by name, and
// zero (the "use the default" value) or a positive size passes.
func TestCheckCounts(t *testing.T) {
	cases := []struct {
		name                                   string
		n, fleet, shards, maxRecords, parallel int
		wantFlag                               string
	}{
		{"defaults", 600, 16, 0, 0, 0, ""},
		{"all positive", 1, 1, 1, 1, 1, ""},
		{"n", -5, 16, 0, 0, 0, "-n"},
		{"fleet", 600, -2, 0, 0, 0, "-fleet"},
		{"shards", 600, 16, -1, 0, 0, "-shards"},
		{"maxrecords", 600, 16, 0, -1, 0, "-maxrecords"},
		{"parallel", 600, 16, 0, 0, -3, "-parallel"},
		{"first named wins", -1, -1, 0, 0, 0, "-n"},
	}
	for _, c := range cases {
		err := checkCounts(c.n, c.fleet, c.shards, c.maxRecords, c.parallel)
		switch {
		case c.wantFlag == "" && err != nil:
			t.Errorf("%s: unexpected error %v", c.name, err)
		case c.wantFlag != "" && err == nil:
			t.Errorf("%s: negative %s accepted", c.name, c.wantFlag)
		case c.wantFlag != "" && !strings.HasPrefix(err.Error(), c.wantFlag+":"):
			t.Errorf("%s: error %q does not name %s", c.name, err, c.wantFlag)
		}
	}
}
