package cssidx_test

import (
	"os/exec"
	"strings"
	"testing"
)

// TestExamplesRun builds and runs every example binary end to end, checking
// the output landmarks each one prints.  Skipped under -short (each example
// generates real data sets).
func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("examples in -short mode")
	}
	cases := []struct {
		dir   string
		args  []string
		wants []string
	}{
		{
			dir:   "./examples/quickstart",
			wants: []string{"built level CSS-tree", "lookups agree with binary search"},
		},
		{
			dir:   "./examples/olap",
			wants: []string{"Q1:", "Q2:", "join produced", "domain"},
		},
		{
			dir:   "./examples/spacetime",
			args:  []string{"-n", "100000", "-lookups", "5000"},
			wants: []string{"stepped frontier", "hash table", "binary search"},
		},
		{
			dir:   "./examples/batchupdate",
			wants: []string{"day 0:", "day 3:", "index rebuild"},
		},
		{
			dir:   "./examples/sharded",
			wants: []string{"built sharded index", "trickle absorbed", "epoch swaps", "lookups agree with binary search"},
		},
	}
	for _, c := range cases {
		c := c
		t.Run(strings.TrimPrefix(c.dir, "./examples/"), func(t *testing.T) {
			out, err := exec.Command("go", append([]string{"run", c.dir}, c.args...)...).CombinedOutput()
			if err != nil {
				t.Fatalf("%s failed: %v\n%s", c.dir, err, out)
			}
			for _, want := range c.wants {
				if !strings.Contains(string(out), want) {
					t.Errorf("%s output missing %q:\n%s", c.dir, want, out)
				}
			}
		})
	}
}
