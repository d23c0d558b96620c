package main

import (
	"path/filepath"
	"strings"
	"text/tabwriter"

	"mtreescale/internal/atomicio"
	"mtreescale/internal/experiments"
	"mtreescale/internal/plot"
)

// writeResult renders res into dir as <id>.txt, <id>.csv and (for figures)
// <id>.gp, byte for byte the files `mtsim -out` writes, and publishes each
// through atomicio. The rendering is one plot.encode span, each file one
// atomicio.write span.
func writeResult(tr *tracer, dir string, res *experiments.Result) error {
	files := map[string][]byte{}
	err := tr.do("plot.encode", func() error {
		var txt, csv, gp strings.Builder
		if res.Figure != nil {
			s, err := plot.RenderASCII(res.Figure, plot.ASCIIOptions{Width: 72, Height: 24})
			if err != nil {
				return err
			}
			txt.WriteString(s)
			if err := plot.WriteCSV(&csv, res.Figure); err != nil {
				return err
			}
			if err := plot.WriteGnuplot(&gp, res.Figure); err != nil {
				return err
			}
			files[".gp"] = []byte(gp.String())
		} else {
			tw := tabwriter.NewWriter(&txt, 2, 4, 2, ' ', 0)
			tw.Write([]byte(strings.Join(res.Header, "\t") + "\n"))
			csv.WriteString(strings.Join(res.Header, ",") + "\n")
			for _, row := range res.Rows {
				tw.Write([]byte(strings.Join(row, "\t") + "\n"))
				csv.WriteString(strings.Join(row, ",") + "\n")
			}
			if err := tw.Flush(); err != nil {
				return err
			}
		}
		if len(res.Notes) > 0 {
			txt.WriteString("notes [" + res.ID + "]:\n")
			for _, n := range res.Notes {
				txt.WriteString("  - " + n + "\n")
			}
		}
		files[".txt"] = []byte(txt.String())
		files[".csv"] = []byte(csv.String())
		return nil
	})
	if err != nil {
		return err
	}
	for _, ext := range []string{".txt", ".csv", ".gp"} {
		data, ok := files[ext]
		if !ok {
			continue
		}
		path := filepath.Join(dir, res.ID+ext)
		if err := tr.do("atomicio.write", func() error { return atomicio.WriteFile(path, data, 0o644) }); err != nil {
			return err
		}
	}
	return nil
}
