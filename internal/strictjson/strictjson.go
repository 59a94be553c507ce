// Package strictjson decodes configuration files strictly: every key
// must match a field's JSON name exactly, at any depth, and nothing may
// follow the top-level value. encoding/json alone matches keys case-
// insensitively (so "atMs" silently fills AtMS) and its unknown-field
// error names only the key; Decode rejects both and names the key's
// path, e.g. "traffic.mesages" or "jobs[1].sweeep".
package strictjson

import (
	"bytes"
	"encoding"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
)

// Decode decodes the one JSON value in data into v, which must be a
// non-nil pointer. A key that matches no field exactly, a key repeated
// within one object, and anything after the value are errors.
func Decode(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	if err := walk(dec, reflect.TypeOf(v), ""); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after the top-level object")
	}
	dec = json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// field is one decodable struct field under its exact JSON name.
type field struct {
	name string
	typ  reflect.Type
}

var (
	jsonUnmarshaler = reflect.TypeOf((*json.Unmarshaler)(nil)).Elem()
	textUnmarshaler = reflect.TypeOf((*encoding.TextUnmarshaler)(nil)).Elem()
)

// walk consumes one JSON value from dec, checking every object key
// against t, the Go type the value decodes into. A nil t (the value
// decodes into an interface, a type with its own decoding, or a type
// that does not match the value's shape) is skipped unchecked: the
// decode that follows reports any type mismatch.
func walk(dec *json.Decoder, t reflect.Type, path string) error {
	tok, err := token(dec)
	if err != nil {
		return err
	}
	d, ok := tok.(json.Delim)
	if !ok {
		return nil // scalar
	}
	for t != nil && t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	if t != nil && (reflect.PointerTo(t).Implements(jsonUnmarshaler) || reflect.PointerTo(t).Implements(textUnmarshaler)) {
		t = nil
	}
	switch {
	case d == '{' && t != nil && t.Kind() == reflect.Struct:
		fields := jsonFields(t)
		seen := make(map[string]bool)
		for dec.More() {
			key, p, err := nextKey(dec, path, seen)
			if err != nil {
				return err
			}
			f, ok := lookup(fields, key)
			if !ok {
				return unknownField(key, p, fields)
			}
			if err := walk(dec, f, p); err != nil {
				return err
			}
		}
	case d == '{' && t != nil && t.Kind() == reflect.Map:
		seen := make(map[string]bool)
		for dec.More() {
			_, p, err := nextKey(dec, path, seen)
			if err != nil {
				return err
			}
			if err := walk(dec, t.Elem(), p); err != nil {
				return err
			}
		}
	case d == '[' && t != nil && (t.Kind() == reflect.Slice || t.Kind() == reflect.Array):
		for i := 0; dec.More(); i++ {
			if err := walk(dec, t.Elem(), fmt.Sprintf("%s[%d]", path, i)); err != nil {
				return err
			}
		}
	default:
		return skip(dec)
	}
	_, err = token(dec) // the closing delimiter
	return err
}

// nextKey reads an object key and returns it with its path, rejecting a
// key already seen in the same object (encoding/json would keep the
// last one silently).
func nextKey(dec *json.Decoder, path string, seen map[string]bool) (string, string, error) {
	tok, err := token(dec)
	if err != nil {
		return "", "", err
	}
	key := tok.(string) // inside an object the decoder yields keys as strings
	p := key
	if path != "" {
		p = path + "." + key
	}
	if seen[key] {
		return "", "", fmt.Errorf("duplicate field %q at %s", key, p)
	}
	seen[key] = true
	return key, p, nil
}

// skip consumes the rest of a value whose opening delimiter was just
// read, iteratively so that deep nesting costs no stack.
func skip(dec *json.Decoder) error {
	for depth := 1; depth > 0; {
		tok, err := token(dec)
		if err != nil {
			return err
		}
		switch tok {
		case json.Delim('{'), json.Delim('['):
			depth++
		case json.Delim('}'), json.Delim(']'):
			depth--
		}
	}
	return nil
}

// token is dec.Token with end of input inside a value reported as
// such: a bare io.EOF would read as a clean end.
func token(dec *json.Decoder) (json.Token, error) {
	tok, err := dec.Token()
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return tok, err
}

// jsonFields lists the fields encoding/json decodes into t, under their
// JSON names, with embedded structs' fields promoted.
func jsonFields(t reflect.Type) []field {
	var fields []field
	for i := 0; i < t.NumField(); i++ {
		sf := t.Field(i)
		tag := sf.Tag.Get("json")
		if tag == "-" {
			continue
		}
		name, _, _ := strings.Cut(tag, ",")
		ft := sf.Type
		if sf.Anonymous && name == "" {
			if ft.Kind() == reflect.Pointer {
				ft = ft.Elem()
			}
			if ft.Kind() == reflect.Struct {
				fields = append(fields, jsonFields(ft)...)
				continue
			}
		}
		if !sf.IsExported() {
			continue
		}
		if name == "" {
			name = sf.Name
		}
		fields = append(fields, field{name: name, typ: ft})
	}
	return fields
}

func lookup(fields []field, key string) (reflect.Type, bool) {
	for _, f := range fields {
		if f.name == key {
			return f.typ, true
		}
	}
	return nil, false
}

// unknownField names the key and its path, and the field it differs
// from only in case, if any.
func unknownField(key, path string, fields []field) error {
	for _, f := range fields {
		if strings.EqualFold(f.name, key) {
			return fmt.Errorf("unknown field %q at %s (did you mean %q?)", key, path, f.name)
		}
	}
	return fmt.Errorf("unknown field %q at %s", key, path)
}
