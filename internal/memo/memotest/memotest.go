// Package memotest checks that result types survive the persistent result
// store of package memo unchanged. A package whose cells memoize a result
// type calls RoundTrip on it from its own tests, so a field of a kind the
// store cannot encode fails in go test rather than in a warm run.
package memotest

import (
	"fmt"
	"reflect"
	"testing"

	"tsxhpc/internal/memo"
	"tsxhpc/internal/runner"
)

// Fill sets everything reachable from v, a non-nil pointer, to non-zero
// values: numbers to small distinct values, strings to distinct names,
// bools to true, and every slice and map to two filled elements. Unexported
// fields and kinds the store cannot encode are left alone for Save to
// report.
func Fill(v any) {
	var n int64
	fill(reflect.ValueOf(v).Elem(), &n)
}

func fill(v reflect.Value, n *int64) {
	*n++
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(*n%100 + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(uint64(*n%100 + 1))
	case reflect.Float32, reflect.Float64:
		v.SetFloat(float64(*n) + 0.5)
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", *n))
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fill(v.Index(i), n)
		}
	case reflect.Slice:
		s := reflect.MakeSlice(v.Type(), 2, 2)
		for i := 0; i < s.Len(); i++ {
			fill(s.Index(i), n)
		}
		v.Set(s)
	case reflect.Map:
		m := reflect.MakeMap(v.Type())
		for i := 0; i < 2; i++ {
			k, e := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
			fill(k, n)
			fill(e, n)
			m.SetMapIndex(k, e)
		}
		v.Set(m)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fill(v.Field(i), n)
			}
		}
	}
}

// RoundTrip saves a value of each sample's type, filled by Fill, through a
// fresh memo.Store and fails t unless Load returns a hit deeply equal to
// what was saved. The samples only name the types; their values are unused.
func RoundTrip(t testing.TB, samples ...any) {
	t.Helper()
	s, err := memo.OpenAt(t.TempDir(), "memotest")
	if err != nil {
		t.Fatal(err)
	}
	for i, sample := range samples {
		typ := reflect.TypeOf(sample)
		in := reflect.New(typ)
		Fill(in.Interface())
		key := runner.Key(fmt.Sprintf("roundtrip/%d", i))
		if err := s.Save(key, in.Elem().Interface()); err != nil {
			t.Errorf("%s: %v", typ, err)
			continue
		}
		out := reflect.New(typ)
		if st := s.Load(key, out.Interface()); st != runner.StoreHit {
			t.Errorf("%s: Load = %v, want hit", typ, st)
			continue
		}
		if !reflect.DeepEqual(in.Elem().Interface(), out.Elem().Interface()) {
			t.Errorf("%s: round trip mismatch:\n in  %+v\n out %+v", typ, in.Elem(), out.Elem())
		}
	}
}
