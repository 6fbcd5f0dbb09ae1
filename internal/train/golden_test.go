package train_test

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/experiments"
	"repro/internal/train"
)

// goldenIters is the length of the recorded loss trajectories.
const goldenIters = 30

// goldenTrajectories pins the model's numerics. Every other tol-0 oracle
// (EngineReference, the serial engine, the socket transports) runs the same
// model code as the path it checks, so a change to the arithmetic of a
// layer, the loss or the optimizer moves all of them together and none
// notices. These are the math.Float64bits of the first goldenIters
// iteration losses and an FNV-1a hash of the final parameters' bits, at
// train.DefaultConfig() with MicroBatch 32 on the experiments corpus.
// A numerics change that is meant to alter results must update them
// deliberately; a refactor or speed-up must leave them untouched.
var goldenTrajectories = []struct {
	name   string
	opt    core.Config
	losses [goldenIters]uint64
	params uint64
}{
	{
		name: "cbfesc",
		opt:  experiments.ScaledOpt(core.CBFESC()),
		losses: [goldenIters]uint64{
			0x400bfda3f1275b8c, 0x400b81fd26196040, 0x400b45a7b106e99a, 0x400b8e8fdc254668, 0x400b8819272f8284,
			0x400b5073c3c9c670, 0x400b0462eb971e52, 0x400b316d296dc4ce, 0x4009a8407fb9eff9, 0x400a4a5f394905ae,
			0x400bd0bc2187025b, 0x400a1cdec7e6ad27, 0x400a661a230b8c73, 0x40091e7fa5abb68d, 0x40094fedce09fefa,
			0x400a08d60c2d09e9, 0x40098cebb9e3daa9, 0x400859093a7ed49c, 0x4009a2e0dcc64e1e, 0x4008853098528f90,
			0x4007df7027d55e66, 0x40073374ed0b0f0a, 0x400850ab2e9b73b6, 0x40076caea8f44d22, 0x40074d29fd898226,
			0x4006a395ef4e343e, 0x4006d5a75ecfb8e2, 0x40076ac0c42e5075, 0x4006bea1e9719039, 0x400639158cda54ee,
		},
		params: 0x717b8dc05b0b14f1,
	},
	{
		name: "baseline",
		opt:  core.Baseline(),
		losses: [goldenIters]uint64{
			0x400bfda3f1275b8c, 0x400b89bbf3c90b05, 0x400b45908b608595, 0x400b96ac108ee190, 0x400bbdc0f7f562a0,
			0x400b26d557991b7e, 0x400afc80114623ba, 0x400ba44538ab8a29, 0x400aa744f00ebc44, 0x400b33a8ee4d5a98,
			0x400af31daf4b8d4a, 0x4009b3ecaf8524d8, 0x400b7da838a4a8d4, 0x400942e6b7c2e6b7, 0x400973a9e7abb7d0,
			0x4009a0fae5f97c21, 0x40098516ccc0611c, 0x40083ca5f819f1ea, 0x40083fa39f6b72be, 0x4007587950f86453,
			0x4006e74d6e7d0062, 0x4005fa3c078502e0, 0x4007005fb23d67ee, 0x4006239b79a3b8f2, 0x4004ef37d1ca6a4c,
			0x4004bae1523efeac, 0x4006334a4d1c35a8, 0x400582125a952d0a, 0x4003900e021f0b40, 0x4002c9aba0503972,
		},
		params: 0x042c5bcb4ffa5548,
	},
}

// paramHash folds the bits of every parameter of replica 0, stage by
// stage in Params order, into one FNV-1a hash.
func paramHash(tr *train.Trainer) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, st := range tr.Stages() {
		for _, p := range st.Params() {
			for _, v := range p.Data {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
				h.Write(buf[:])
			}
		}
	}
	return h.Sum64()
}

func TestGoldenLossTrajectory(t *testing.T) {
	corpus, err := data.Generate(data.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range goldenTrajectories {
		t.Run(g.name, func(t *testing.T) {
			cfg := train.DefaultConfig()
			cfg.MicroBatch = 32
			cfg.Opt = g.opt
			tr, err := train.New(cfg, corpus)
			if err != nil {
				t.Fatal(err)
			}
			defer tr.Close()
			var got [goldenIters]uint64
			for i := range got {
				got[i] = math.Float64bits(tr.TrainIteration())
			}
			for i := range got {
				if got[i] != g.losses[i] {
					t.Errorf("iteration %d: loss %v (bits %#x), golden %v (bits %#x)",
						i, math.Float64frombits(got[i]), got[i],
						math.Float64frombits(g.losses[i]), g.losses[i])
				}
			}
			if h := paramHash(tr); h != g.params {
				t.Errorf("final parameter hash %#x, golden %#x", h, g.params)
			}
			if t.Failed() {
				t.Logf("losses: %#v", got)
			}
		})
	}
}
