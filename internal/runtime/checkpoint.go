package runtime

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/graph"
	"repro/internal/tensor"
)

// Checkpointing: serialize a graph's variables so trained models can
// be saved and restored — the capability a downstream user of the
// workload suite needs to reuse trained parameters.
//
// Format (little-endian):
//
//	magic "FTHM" | uint32 version | uint32 count |
//	repeat: uint32 nameLen | name | uint32 rank | dims... |
//	        float32 data...

const (
	checkpointMagic   = "FTHM"
	checkpointVersion = 1
)

// SaveCheckpoint writes every variable of g (name, shape, data).
// Variable names must be unique; models name parameters by layer.
func SaveCheckpoint(w io.Writer, g *graph.Graph) error {
	vars := g.Variables()
	names := map[string]bool{}
	for _, v := range vars {
		if names[v.Name()] {
			return fmt.Errorf("runtime: duplicate variable name %q", v.Name())
		}
		names[v.Name()] = true
	}
	if _, err := w.Write([]byte(checkpointMagic)); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, uint32(checkpointVersion)); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, uint32(len(vars))); err != nil {
		return err
	}
	for _, v := range vars {
		name := []byte(v.Name())
		if err := binary.Write(w, binary.LittleEndian, uint32(len(name))); err != nil {
			return err
		}
		if _, err := w.Write(name); err != nil {
			return err
		}
		shape := v.Shape()
		if err := binary.Write(w, binary.LittleEndian, uint32(len(shape))); err != nil {
			return err
		}
		for _, d := range shape {
			if err := binary.Write(w, binary.LittleEndian, uint32(d)); err != nil {
				return err
			}
		}
		data := v.Value().Data()
		buf := make([]byte, 4*len(data))
		for i, f := range data {
			binary.LittleEndian.PutUint32(buf[i*4:], math.Float32bits(f))
		}
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// LoadCheckpoint restores variables into g by name. Every variable in
// the checkpoint must exist in g with a matching shape; g may not
// contain extra variables unless allowMissing is true.
//
// The file is untrusted: each record's name length is bounded by the
// longest variable name in g, and its rank and dimensions must equal
// that variable's shape, before anything sized by the record is
// allocated. Records decode into scratch and are committed together
// only once the whole file has been read and checked, so a failed load
// leaves every variable of g untouched.
func LoadCheckpoint(r io.Reader, g *graph.Graph, allowMissing bool) error {
	magic := make([]byte, 4)
	if _, err := io.ReadFull(r, magic); err != nil {
		return fmt.Errorf("runtime: reading checkpoint magic: %w", err)
	}
	if string(magic) != checkpointMagic {
		return fmt.Errorf("runtime: not a checkpoint file (magic %q)", magic)
	}
	var version, count uint32
	if err := binary.Read(r, binary.LittleEndian, &version); err != nil {
		return err
	}
	if version != checkpointVersion {
		return fmt.Errorf("runtime: unsupported checkpoint version %d", version)
	}
	if err := binary.Read(r, binary.LittleEndian, &count); err != nil {
		return err
	}
	byName := map[string]*graph.Node{}
	maxName := 0
	for _, v := range g.Variables() {
		byName[v.Name()] = v
		maxName = max(maxName, len(v.Name()))
	}
	restored := map[string][]float32{}
	for i := uint32(0); i < count; i++ {
		var nameLen uint32
		if err := binary.Read(r, binary.LittleEndian, &nameLen); err != nil {
			return err
		}
		if int64(nameLen) > int64(maxName) {
			return fmt.Errorf("runtime: checkpoint record %d name length %d exceeds every graph variable name", i, nameLen)
		}
		name := make([]byte, nameLen)
		if _, err := io.ReadFull(r, name); err != nil {
			return err
		}
		v, ok := byName[string(name)]
		if !ok {
			return fmt.Errorf("runtime: checkpoint variable %q not in graph", name)
		}
		var rank uint32
		if err := binary.Read(r, binary.LittleEndian, &rank); err != nil {
			return err
		}
		if int64(rank) != int64(len(v.Shape())) {
			return fmt.Errorf("runtime: variable %q has rank %d, checkpoint rank %d", name, len(v.Shape()), rank)
		}
		shape := make([]int, rank)
		for j := range shape {
			var d uint32
			if err := binary.Read(r, binary.LittleEndian, &d); err != nil {
				return err
			}
			shape[j] = int(d)
		}
		if !tensor.SameShape(v.Shape(), shape) {
			return fmt.Errorf("runtime: variable %q shape %v != checkpoint %v", name, v.Shape(), shape)
		}
		data := make([]float32, v.Value().Size())
		if err := binary.Read(r, binary.LittleEndian, data); err != nil {
			return err
		}
		restored[string(name)] = data
	}
	if !allowMissing {
		for name := range byName {
			if _, ok := restored[name]; !ok {
				return fmt.Errorf("runtime: graph variable %q missing from checkpoint", name)
			}
		}
	}
	for name, data := range restored {
		copy(byName[name].Value().Data(), data)
	}
	return nil
}
