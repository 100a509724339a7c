package experiments

import (
	"strings"
	"testing"
)

// TestE18AllPass parses the E18 table and requires 100% pass rates on every
// chaos×fault cell: per-instance validity, ε-agreement and termination must
// all hold when a heterogeneous batch (CC + vector + Byzantine) shares one
// TCP network — including the cells that kill and WAL-recover a node.
func TestE18AllPass(t *testing.T) {
	table := quickTable(t, "E18")
	if len(table.Rows) != 4 {
		t.Fatalf("E18 has %d rows, want 4 (chaos {off,light} × faults {none,restart})", len(table.Rows))
	}
	for _, row := range table.Rows {
		for col := 3; col <= 7; col++ {
			parts := strings.Split(row[col], "/")
			if len(parts) != 2 || parts[0] != parts[1] || parts[0] == "0" {
				t.Errorf("chaos=%s faults=%s column %q: %s is not a full pass",
					row[0], row[1], table.Header[col], row[col])
			}
		}
	}
}
