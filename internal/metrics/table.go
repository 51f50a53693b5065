package metrics

import (
	"fmt"
	"math"
	"strings"
)

// Table is a rendered experiment result: a titled grid of cells matching a
// table (or the data behind a figure) from the paper's argument.
type Table struct {
	Title   string     `json:"title"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
	Notes   []string   `json:"notes,omitempty"`
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row; short rows are padded with empty cells, long rows
// extend the column set with blank headers so nothing is silently dropped.
func (t *Table) AddRow(cells ...string) {
	for len(cells) < len(t.Columns) {
		cells = append(cells, "")
	}
	for len(t.Columns) < len(cells) {
		t.Columns = append(t.Columns, "")
	}
	row := make([]string, len(cells))
	copy(row, cells)
	t.Rows = append(t.Rows, row)
}

// AddRowf appends a row formatting each value with %v, using %.4g for floats
// to keep tables compact.
func (t *Table) AddRowf(values ...any) {
	cells := make([]string, 0, len(values))
	for _, v := range values {
		switch x := v.(type) {
		case float64:
			cells = append(cells, fmt.Sprintf("%.4g", x))
		case float32:
			cells = append(cells, fmt.Sprintf("%.4g", x))
		default:
			cells = append(cells, fmt.Sprintf("%v", x))
		}
	}
	t.AddRow(cells...)
}

// AddNote appends a free-text footnote rendered under the table.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// String renders the table as aligned ASCII.
func (t *Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, w := range widths {
			cell := ""
			if i < len(cells) {
				cell = cells[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", w, cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	total := 0
	for _, w := range widths {
		total += w
	}
	total += 2 * (len(widths) - 1)
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		b.WriteString("note: ")
		b.WriteString(n)
		b.WriteByte('\n')
	}
	return b.String()
}

// CSV renders the table as comma-separated values (quoting cells that
// contain commas or quotes).
func (t *Table) CSV() string {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				b.WriteByte('"')
				b.WriteString(strings.ReplaceAll(c, `"`, `""`))
				b.WriteByte('"')
			} else {
				b.WriteString(c)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// Point is a single (x, y) datum of a figure series.
type Point struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// Series is one named line of a figure.
type Series struct {
	Name   string  `json:"name"`
	Points []Point `json:"points"`
}

// BandPoint is one x position of a band: the shaded [Lo, Hi] interval at
// that x.
type BandPoint struct {
	X  float64 `json:"x"`
	Lo float64 `json:"lo"`
	Hi float64 `json:"hi"`
}

// Band is a shaded x-interval envelope, e.g. the mean±95%-CI region
// around an aggregate series. A band whose Name matches a series is
// drawn in that series' color (at low opacity, behind the lines).
type Band struct {
	Name   string      `json:"name"`
	Points []BandPoint `json:"points"`
}

// Figure is plottable experiment output: one or more series over a shared
// x-axis, optionally wrapped in shaded bands (confidence envelopes).
// Render produces a coarse ASCII plot of the series; the SVG renderer
// also draws the bands; the underlying series data can be exported via
// Table.
type Figure struct {
	Title  string   `json:"title"`
	XLabel string   `json:"xlabel"`
	YLabel string   `json:"ylabel"`
	Series []Series `json:"series"`
	Bands  []Band   `json:"bands,omitempty"`
}

// Add appends a point to the named series, creating it if necessary.
func (f *Figure) Add(series string, x, y float64) {
	for i := range f.Series {
		if f.Series[i].Name == series {
			f.Series[i].Points = append(f.Series[i].Points, Point{X: x, Y: y})
			return
		}
	}
	f.Series = append(f.Series, Series{Name: series, Points: []Point{{X: x, Y: y}}})
}

// AddBand appends an interval point to the named band, creating it if
// necessary.
func (f *Figure) AddBand(band string, x, lo, hi float64) {
	for i := range f.Bands {
		if f.Bands[i].Name == band {
			f.Bands[i].Points = append(f.Bands[i].Points, BandPoint{X: x, Lo: lo, Hi: hi})
			return
		}
	}
	f.Bands = append(f.Bands, Band{Name: band, Points: []BandPoint{{X: x, Lo: lo, Hi: hi}}})
}

// Render draws a coarse ASCII plot of all series on a width×height grid.
// Each series uses a distinct marker; a legend follows the plot.
func (f *Figure) Render(width, height int) string {
	if width < 16 {
		width = 16
	}
	if height < 6 {
		height = 6
	}
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	n := 0
	for _, s := range f.Series {
		for _, p := range s.Points {
			n++
			minX, maxX = minf(minX, p.X), maxf(maxX, p.X)
			minY, maxY = minf(minY, p.Y), maxf(maxY, p.Y)
		}
	}
	if n == 0 {
		return f.Title + " (no data)\n"
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	markers := []byte{'*', '+', 'o', 'x', '#', '@', '%', '&'}
	for si, s := range f.Series {
		m := markers[si%len(markers)]
		for _, p := range s.Points {
			col := int((p.X - minX) / (maxX - minX) * float64(width-1))
			row := height - 1 - int((p.Y-minY)/(maxY-minY)*float64(height-1))
			grid[row][col] = m
		}
	}
	var b strings.Builder
	if f.Title != "" {
		b.WriteString(f.Title)
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "%s (y: %.4g..%.4g)\n", f.YLabel, minY, maxY)
	for _, row := range grid {
		b.WriteByte('|')
		b.Write(row)
		b.WriteByte('\n')
	}
	b.WriteByte('+')
	b.WriteString(strings.Repeat("-", width))
	b.WriteByte('\n')
	fmt.Fprintf(&b, "%s (x: %.4g..%.4g)\n", f.XLabel, minX, maxX)
	for si, s := range f.Series {
		fmt.Fprintf(&b, "  %c %s\n", markers[si%len(markers)], s.Name)
	}
	return b.String()
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
