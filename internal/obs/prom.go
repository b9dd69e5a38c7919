package obs

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// WriteProm renders a stats snapshot (the struct a /statsz endpoint
// serves as JSON) as Prometheus text under prefix, so that struct is the
// one declaration of every counter. The walk follows the JSON encoding:
// JSON names join into the path (cache, hits: cache_hits), nested structs
// recurse and map keys become label values. A field's `metric` tag
//
//	metric:"kind[,name=N][,label=L][,k=v]...,help"
//
// declares its family: kind is counter (adds _total) or gauge; name=N
// replaces the path so far; label=L names the label of a map key, and
// "a|b" splits an "x|y" key in two; any other k=v is a constant label.
// An _ns leaf exports _seconds, a bool 0 or 1. A struct shared by several
// parents may carry one tag per parent, keyed by the parent's JSON name;
// an `also` tag feeds a second family. Adjacent declarations may feed one
// family, under the first one's help.
func WriteProm(b *strings.Builder, prefix string, snap any) {
	w := promWriter{b: b, prefix: prefix + "_"}
	w.walk([]promRow{{v: reflect.ValueOf(snap)}}, "", "")
}

// WritePromHeader writes a family's HELP and TYPE lines.
func WritePromHeader(b *strings.Builder, name, kind, help string) {
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, kind)
}

type promWriter struct {
	b            *strings.Builder
	prefix, last string // last is the family written last
}

// promRow is one value of a walk, with the labels its map ancestors fixed.
type promRow struct {
	v      reflect.Value
	labels []string
}

// promDecl is one parsed `metric` tag.
type promDecl struct {
	kind, name, help string
	label, consts    []string // map-key label names; constant labels as k="v"
}

func parseDecl(tag string) (d promDecl) {
	for tag != "" {
		opt, rest, _ := strings.Cut(tag, ",")
		k, v, isOpt := strings.Cut(opt, "=")
		switch {
		case opt == "counter" || opt == "gauge":
			d.kind = opt
		case !isOpt || strings.Contains(k, " "):
			d.help = tag
			return d
		case k == "name":
			d.name = v
		case k == "label":
			d.label = strings.Split(v, "|")
		default:
			d.consts = append(d.consts, k+"="+strconv.Quote(v))
		}
		tag = rest
	}
	return d
}

// walk renders rows, structs of one type found under path; parent is the
// JSON name of the field holding them. A field's samples from every row
// come out together, so each family is written in one piece.
func (w *promWriter) walk(rows []promRow, path, parent string) {
	t := rows[0].v.Type()
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		jname, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if jname == "-" {
			continue
		}
		tag, ok := f.Tag.Lookup(parent)
		if !ok {
			tag = f.Tag.Get("metric")
		}
		fields := make([]promRow, len(rows))
		for j, r := range rows {
			fields[j] = promRow{r.v.Field(i), r.labels}
		}
		name := strings.TrimPrefix(path+"_"+jname, "_")
		w.field(fields, name, jname, parseDecl(tag))
		if also, ok := f.Tag.Lookup("also"); ok {
			w.field(fields, name, jname, parseDecl(also))
		}
	}
}

func (w *promWriter) field(rows []promRow, name, jname string, d promDecl) {
	if d.name != "" {
		name = d.name
	}
	switch t := rows[0].v.Type(); t.Kind() {
	case reflect.Struct:
		w.walk(rows, name, jname)
	case reflect.Map:
		var elems []promRow
		for _, r := range rows {
			keys := r.v.MapKeys()
			sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
			for _, k := range keys {
				vals := strings.SplitN(k.String(), "|", len(d.label))
				if len(vals) != len(d.label) {
					continue
				}
				ls := slices.Clip(r.labels)
				for j, l := range d.label {
					ls = append(ls, l+"="+strconv.Quote(vals[j]))
				}
				elems = append(elems, promRow{r.v.MapIndex(k), ls})
			}
		}
		if t.Elem().Kind() != reflect.Struct {
			w.leaves(elems, name, d) // the family is declared even while empty
		} else if len(elems) > 0 {
			w.walk(elems, name, jname)
		}
	default:
		w.leaves(rows, name, d)
	}
}

// leaves writes one sample per row to the family a leaf named name feeds.
func (w *promWriter) leaves(rows []promRow, name string, d promDecl) {
	if d.kind == "" {
		panic("obs: " + name + " declares no metric kind")
	}
	family := w.prefix + name
	if base, ok := strings.CutSuffix(family, "_ns"); ok {
		family = base + "_seconds"
	}
	if d.kind == "counter" {
		family += "_total"
	}
	if family != w.last {
		WritePromHeader(w.b, family, d.kind, d.help)
		w.last = family
	}
	for _, r := range rows {
		x := r.v.Interface()
		switch {
		case r.v.Kind() == reflect.Bool:
			x = 0
			if r.v.Bool() {
				x = 1
			}
		case strings.HasSuffix(name, "_ns"):
			x = float64(r.v.Int()) / 1e9
		}
		w.b.WriteString(family)
		if ls := append(slices.Clip(r.labels), d.consts...); len(ls) > 0 {
			w.b.WriteString("{" + strings.Join(ls, ",") + "}")
		}
		fmt.Fprintf(w.b, " %v\n", x)
	}
}
