package ekf_test

// Hot-path benchmarks for the EKF step cycle.

import (
	"testing"

	"repro/internal/ekf"
	"repro/internal/sensors"
	"repro/internal/vehicle"
)

// benchFilter returns a warmed copter filter plus a steady-state
// measurement and the full active sensor set.
func benchFilter() (*ekf.Filter, sensors.PhysState, sensors.TypeSet) {
	return benchFilterFor(vehicle.ArduCopter)
}

// benchFilterFor returns a warmed filter for the profile plus a
// steady-state measurement and the full active sensor set.
func benchFilterFor(id vehicle.ProfileName) (*ekf.Filter, sensors.PhysState, sensors.TypeSet) {
	f := ekf.New(vehicle.MustProfile(id), 0.01)
	f.Init(vehicle.State{Z: 10})
	meas := sensors.TruePhysState(vehicle.State{Z: 10}, [3]float64{}, sensors.BodyField(0))
	active := sensors.NewTypeSet(sensors.AllTypes()...)
	f.Predict(vehicle.Input{Thrust: 9})
	_ = f.Correct(&meas, active)
	return f, meas, active
}

// benchCases are the sub-benchmarks of the predict and correct steps: a
// copter and a rover, each with every sensor active and with GPS masked.
// The masked row set is the one a mission runs once it isolates GPS,
// after its filter has left the shared schedule.
var benchCases = []struct {
	name    string
	profile vehicle.ProfileName
	maskGPS bool
}{
	{"copter/all", vehicle.ArduCopter, false},
	{"copter/gps-masked", vehicle.ArduCopter, true},
	{"rover/all", vehicle.ArduRover, false},
	{"rover/gps-masked", vehicle.ArduRover, true},
}

// benchCaseFilter returns the warmed filter, measurement and active set of
// one sub-benchmark.
func benchCaseFilter(id vehicle.ProfileName, maskGPS bool) (*ekf.Filter, sensors.PhysState, sensors.TypeSet) {
	f, meas, active := benchFilterFor(id)
	if maskGPS {
		active.Remove(sensors.GPS)
	}
	return f, meas, active
}

func BenchmarkEKFPredict(b *testing.B) {
	f, _, _ := benchFilter()
	u := vehicle.Input{Thrust: 9}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Predict(u)
	}
}

func BenchmarkEKFPredictHybrid(b *testing.B) {
	for _, bc := range benchCases {
		b.Run(bc.name, func(b *testing.B) {
			f, meas, active := benchCaseFilter(bc.profile, bc.maskGPS)
			u := vehicle.Input{Thrust: 9}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.PredictHybrid(u, &meas, active)
			}
		})
	}
}

func BenchmarkEKFCorrect(b *testing.B) {
	for _, bc := range benchCases {
		b.Run(bc.name, func(b *testing.B) {
			f, meas, active := benchCaseFilter(bc.profile, bc.maskGPS)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := f.Correct(&meas, active); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
