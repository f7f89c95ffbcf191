package core

import (
	"testing"

	"repro/internal/geom"
)

func TestErrorMetric(t *testing.T) {
	e := Estimate{Pos: geom.Pt(3, 4)}
	if Error(e, geom.Pt(0, 0)) != 5 {
		t.Error("error metric wrong")
	}
}
