package server

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"io"
	"strconv"
	"strings"

	"smoke/internal/serr"
	"smoke/internal/serverclient"
	"smoke/internal/storage"
)

// tableJSON is the JSON ingest body of POST /v1/tables/{name}: an explicit
// schema plus rows in schema order.
type tableJSON struct {
	Schema []serverclient.Field `json:"schema"`
	Rows   [][]any              `json:"rows"`
	// PK optionally declares the primary-key column (enables the pk-fk join
	// specializations for later queries).
	PK string `json:"pk,omitempty"`
}

func parseType(s string) (storage.Type, error) {
	switch strings.ToLower(s) {
	case "int":
		return storage.TInt, nil
	case "float":
		return storage.TFloat, nil
	case "string":
		return storage.TString, nil
	}
	return 0, serr.New(serr.Invalid, "server: unknown column type %q (want int, float, or string)", s)
}

// TypeName is a column type's wire name.
func TypeName(t storage.Type) string {
	switch t {
	case storage.TInt:
		return "int"
	case storage.TFloat:
		return "float"
	case storage.TString:
		return "string"
	}
	return "?"
}

// relationFromJSON builds a relation from the JSON ingest body. JSON numbers
// arrive as json.Number (the handler decodes with UseNumber so int64 values
// survive beyond float64 precision).
func relationFromJSON(name string, body tableJSON) (*storage.Relation, error) {
	if len(body.Schema) == 0 {
		return nil, serr.New(serr.Invalid, "server: table body needs a non-empty schema")
	}
	schema := make(storage.Schema, len(body.Schema))
	for i, f := range body.Schema {
		if f.Name == "" {
			return nil, serr.New(serr.Invalid, "server: schema field %d has no name", i)
		}
		ty, err := parseType(f.Type)
		if err != nil {
			return nil, err
		}
		schema[i] = storage.Field{Name: f.Name, Type: ty}
	}
	rel := storage.NewRelation(name, schema, len(body.Rows))
	for i, row := range body.Rows {
		if len(row) != len(schema) {
			return nil, serr.New(serr.Invalid, "server: row %d has %d values for %d columns", i, len(row), len(schema))
		}
		for c, f := range schema {
			switch f.Type {
			case storage.TInt:
				v, err := jsonInt(row[c])
				if err != nil {
					return nil, serr.New(serr.Invalid, "server: row %d column %s: %v", i, f.Name, err)
				}
				rel.Cols[c].Ints[i] = v
			case storage.TFloat:
				v, err := jsonFloat(row[c])
				if err != nil {
					return nil, serr.New(serr.Invalid, "server: row %d column %s: %v", i, f.Name, err)
				}
				rel.Cols[c].Floats[i] = v
			case storage.TString:
				s, ok := row[c].(string)
				if !ok {
					return nil, serr.New(serr.Invalid, "server: row %d column %s: want string, got %T", i, f.Name, row[c])
				}
				rel.Cols[c].Strs[i] = s
			}
		}
	}
	return rel, nil
}

func jsonInt(v any) (int64, error) {
	switch n := v.(type) {
	case json.Number:
		return strconv.ParseInt(n.String(), 10, 64)
	case float64:
		return int64(n), nil
	case int64:
		return n, nil
	}
	return 0, serr.New(serr.Invalid, "want integer, got %T", v)
}

func jsonFloat(v any) (float64, error) {
	switch n := v.(type) {
	case json.Number:
		return n.Float64()
	case float64:
		return n, nil
	}
	return 0, serr.New(serr.Invalid, "want number, got %T", v)
}

// relationFromCSV builds a relation from a CSV body: the first record is the
// header. Column types come from the types parameter ("int,float,string",
// one per column) or, when empty, are sniffed per column from the data (a
// column where every value parses as int is int; else float; else string).
func relationFromCSV(name string, r io.Reader, types string) (*storage.Relation, error) {
	cr := csv.NewReader(r)
	cr.TrimLeadingSpace = true
	records, err := cr.ReadAll()
	if err != nil {
		return nil, serr.New(serr.Invalid, "server: bad csv: %v", err)
	}
	if len(records) == 0 {
		return nil, serr.New(serr.Invalid, "server: csv body needs a header record")
	}
	header, rows := records[0], records[1:]
	cols := len(header)

	schema := make(storage.Schema, cols)
	for c, h := range header {
		schema[c] = storage.Field{Name: strings.TrimSpace(h)}
		if schema[c].Name == "" {
			return nil, serr.New(serr.Invalid, "server: csv header column %d is empty", c)
		}
	}
	if types != "" {
		parts := strings.Split(types, ",")
		if len(parts) != cols {
			return nil, serr.New(serr.Invalid, "server: types lists %d types for %d columns", len(parts), cols)
		}
		for c, p := range parts {
			ty, err := parseType(strings.TrimSpace(p))
			if err != nil {
				return nil, err
			}
			schema[c].Type = ty
		}
	} else {
		for c := range schema {
			schema[c].Type = sniffCSVType(rows, c)
		}
	}

	rel := storage.NewRelation(name, schema, len(rows))
	for i, row := range rows {
		if len(row) != cols {
			return nil, serr.New(serr.Invalid, "server: csv row %d has %d fields for %d columns", i, len(row), cols)
		}
		for c, f := range schema {
			cell := strings.TrimSpace(row[c])
			switch f.Type {
			case storage.TInt:
				v, err := strconv.ParseInt(cell, 10, 64)
				if err != nil {
					return nil, serr.New(serr.Invalid, "server: csv row %d column %s: %q is not an int", i, f.Name, cell)
				}
				rel.Cols[c].Ints[i] = v
			case storage.TFloat:
				v, err := strconv.ParseFloat(cell, 64)
				if err != nil {
					return nil, serr.New(serr.Invalid, "server: csv row %d column %s: %q is not a number", i, f.Name, cell)
				}
				rel.Cols[c].Floats[i] = v
			case storage.TString:
				rel.Cols[c].Strs[i] = cell
			}
		}
	}
	return rel, nil
}

// sniffCSVType infers a column type from its values: int if every value
// parses as int, else float if every value parses as a number, else string.
// A column with no rows defaults to string.
func sniffCSVType(rows [][]string, c int) storage.Type {
	if len(rows) == 0 {
		return storage.TString
	}
	isInt, isFloat := true, true
	for _, row := range rows {
		if c >= len(row) {
			return storage.TString
		}
		cell := strings.TrimSpace(row[c])
		if isInt {
			if _, err := strconv.ParseInt(cell, 10, 64); err != nil {
				isInt = false
			}
		}
		if !isInt && isFloat {
			if _, err := strconv.ParseFloat(cell, 64); err != nil {
				isFloat = false
				break
			}
		}
	}
	switch {
	case isInt:
		return storage.TInt
	case isFloat:
		return storage.TFloat
	}
	return storage.TString
}

// ParseTableCSV builds a relation from a CSV ingest body (header record
// first; types as in POST /v1/tables). Exported for the shard coordinator
// (internal/shard), which parses an ingest body once and splits the rows by
// rid range before handing each shard its slice.
func ParseTableCSV(name string, r io.Reader, types string) (*storage.Relation, error) {
	return relationFromCSV(name, r, types)
}

// ParseTableJSON builds a relation from a JSON ingest body, returning the
// declared primary key ("" when absent). Exported for the shard coordinator.
func ParseTableJSON(name string, body []byte) (*storage.Relation, string, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	var tb tableJSON
	if err := dec.Decode(&tb); err != nil {
		return nil, "", serr.New(serr.Invalid, "server: bad request body: %v", err)
	}
	rel, err := relationFromJSON(name, tb)
	if err != nil {
		return nil, "", err
	}
	return rel, tb.PK, nil
}

// VerifyPK checks a client-declared primary key against the data before it
// is believed: the column must exist, be int-typed, and hold unique values.
// A declared pk short-circuits the optimizer's uniqueness check and sends
// joins down the one-match pk-fk specialization — a duplicate-keyed "pk"
// would silently drop join matches.
func VerifyPK(rel *storage.Relation, pk string) error {
	ci := rel.Schema.Col(pk)
	switch {
	case ci < 0:
		return serr.New(serr.Invalid, "server: pk column %q is not in the schema", pk)
	case rel.Schema[ci].Type != storage.TInt:
		return serr.New(serr.Invalid, "server: pk column %q must be an int column", pk)
	case !storage.IntColumnUnique(rel, pk):
		return serr.New(serr.Invalid, "server: pk column %q holds duplicate values", pk)
	}
	return nil
}

// Schema renders a relation's schema in wire form (nil when it has no
// columns).
func Schema(rel *storage.Relation) []serverclient.Field {
	var out []serverclient.Field
	for _, f := range rel.Schema {
		out = append(out, serverclient.Field{Name: f.Name, Type: TypeName(f.Type)})
	}
	return out
}

// RenderRelation renders a relation as the wire result shape shared by
// every query, trace, and result endpoint.
func RenderRelation(rel *storage.Relation) serverclient.Result {
	out := serverclient.Result{N: rel.N, Rows: make([][]any, rel.N)}
	for _, f := range rel.Schema {
		out.Columns = append(out.Columns, f.Name)
		out.Types = append(out.Types, TypeName(f.Type))
	}
	for i := 0; i < rel.N; i++ {
		row := make([]any, len(rel.Schema))
		for c := range rel.Schema {
			row[c] = rel.Value(c, i)
		}
		out.Rows[i] = row
	}
	return out
}

// ResultRelation rebuilds a relation from a decoded wire result, the inverse
// of RenderRelation. The shard coordinator evaluates seed predicates and
// consuming filters over merged results through it, exactly as a single
// node evaluates them over its own output relation.
func ResultRelation(name string, res *serverclient.Result) (*storage.Relation, error) {
	body := tableJSON{Schema: make([]serverclient.Field, len(res.Columns)), Rows: res.Rows}
	for c, col := range res.Columns {
		body.Schema[c] = serverclient.Field{Name: col, Type: res.Types[c]}
	}
	return relationFromJSON(name, body)
}
