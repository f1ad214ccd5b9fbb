package vehicle

import "fmt"

// ProfileName identifies one of the six subject RVs of Table 2.
type ProfileName string

// The six subject RVs of the paper's evaluation (Table 2). The first four
// correspond to the paper's real vehicles; the last two to its SITL
// vehicles. In this reproduction all six run on the simulated substrate,
// differentiated by their physical and sensing parameters.
const (
	Pixhawk    ProfileName = "Pixhawk"
	Tarot      ProfileName = "Tarot"
	SkyViper   ProfileName = "Sky-Viper"
	AionR1     ProfileName = "AionR1"
	ArduCopter ProfileName = "ArduCopter"
	ArduRover  ProfileName = "ArduRover"
)

// RealRVs lists the profiles standing in for the paper's four real
// vehicles (Table 7).
func RealRVs() []ProfileName {
	return []ProfileName{Pixhawk, Tarot, SkyViper, AionR1}
}

// AllRVs lists every profile.
func AllRVs() []ProfileName {
	return []ProfileName{Pixhawk, Tarot, SkyViper, AionR1, ArduCopter, ArduRover}
}

// SensorCounts records how many physical units of each sensor type a
// profile carries (Table 2). Diagnosis operates at the sensor-*type*
// granularity, as in the paper ("when we say a sensor is attacked, we
// mean that all the sensors of that type are attacked").
type SensorCounts struct {
	GPS, Gyro, Accel, Mag, Baro int
}

// SensorRates records per-sensor-type sample rates in Hz. The checkpoint
// recorder aligns the streams to the fastest rate (paper §4.2).
type SensorRates struct {
	GPS, Gyro, Accel, Mag, Baro float64
}

// NoiseFloor records the 1-σ measurement noise per sensor type in the
// units of the measured quantity.
type NoiseFloor struct {
	GPSPos float64 // m
	GPSVel float64 // m/s
	Gyro   float64 // rad/s
	Accel  float64 // m/s²
	Mag    float64 // gauss
	Baro   float64 // m of altitude
}

// Profile is a complete subject-RV description: physics, sensing, and
// mission envelope.
type Profile struct {
	Name   ProfileName
	Kind   Kind
	Quad   Quadcopter // valid when Kind == KindQuadcopter
	Rover  Rover      // valid when Kind == KindRover
	Counts SensorCounts
	Rates  SensorRates
	Noise  NoiseFloor

	// CruiseSpeed is the nominal mission speed in m/s.
	CruiseSpeed float64
	// CruiseAltitude is the nominal mission altitude for drones, m.
	CruiseAltitude float64
	// MaxTilt clamps commanded roll/pitch in rad.
	MaxTilt float64
	// MaxThrust clamps total thrust in N (quad) or acceleration in m/s²
	// (rover).
	MaxThrust float64
}

// IsQuad reports whether the profile is a drone. It takes a pointer
// receiver: inlined through a pointer, a value receiver would copy the
// whole Profile.
func (p *Profile) IsQuad() bool { return p.Kind == KindQuadcopter }

// LookupProfile returns the named profile, or an error for an unknown
// name.
func LookupProfile(name ProfileName) (Profile, error) {
	for _, p := range Profiles() {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("vehicle: unknown profile %q", name)
}

// MustProfile returns the named profile and panics on unknown names; use
// only with the package's own constants.
func MustProfile(name ProfileName) Profile {
	p, err := LookupProfile(name)
	if err != nil {
		panic(err)
	}
	return p
}

// Profiles returns the six subject-RV profiles (Table 2). Masses,
// inertias, and geometry approximate the respective commercial platforms;
// sensor counts follow Table 2 exactly.
func Profiles() []Profile {
	defaultRates := SensorRates{GPS: 10, Gyro: 400, Accel: 400, Mag: 100, Baro: 100}
	return []Profile{
		{
			Name:   Pixhawk,
			Kind:   KindQuadcopter,
			Quad:   Quadcopter{Mass: 1.5, IX: 0.022, IY: 0.022, IZ: 0.040, DragCoef: 0.35, AngularDrag: 0.012},
			Counts: SensorCounts{GPS: 1, Gyro: 3, Accel: 3, Mag: 3, Baro: 1},
			Rates:  defaultRates,
			Noise: NoiseFloor{
				GPSPos: 0.8, GPSVel: 0.12, Gyro: 0.010, Accel: 0.08, Mag: 0.012, Baro: 0.15,
			},
			CruiseSpeed: 5, CruiseAltitude: 10, MaxTilt: 0.5, MaxThrust: 4 * 1.5 * Gravity,
		},
		{
			Name:   Tarot,
			Kind:   KindQuadcopter,
			Quad:   Quadcopter{Mass: 2.6, IX: 0.045, IY: 0.045, IZ: 0.085, DragCoef: 0.45, AngularDrag: 0.020},
			Counts: SensorCounts{GPS: 1, Gyro: 3, Accel: 3, Mag: 3, Baro: 2},
			Rates:  defaultRates,
			Noise: NoiseFloor{
				GPSPos: 0.7, GPSVel: 0.10, Gyro: 0.008, Accel: 0.07, Mag: 0.010, Baro: 0.12,
			},
			CruiseSpeed: 6, CruiseAltitude: 12, MaxTilt: 0.45, MaxThrust: 4 * 2.6 * Gravity,
		},
		{
			Name:   SkyViper,
			Kind:   KindQuadcopter,
			Quad:   Quadcopter{Mass: 0.15, IX: 0.0009, IY: 0.0009, IZ: 0.0016, DragCoef: 0.06, AngularDrag: 0.0006},
			Counts: SensorCounts{GPS: 1, Gyro: 1, Accel: 1, Mag: 1, Baro: 1},
			Rates:  SensorRates{GPS: 5, Gyro: 200, Accel: 200, Mag: 50, Baro: 50},
			Noise: NoiseFloor{
				GPSPos: 1.2, GPSVel: 0.18, Gyro: 0.020, Accel: 0.15, Mag: 0.020, Baro: 0.25,
			},
			CruiseSpeed: 3, CruiseAltitude: 8, MaxTilt: 0.55, MaxThrust: 4 * 0.15 * Gravity,
		},
		{
			Name:   AionR1,
			Kind:   KindRover,
			Rover:  Rover{LF: 0.20, LR: 0.20, MaxSteer: 0.6, MaxSpeed: 3.5, DragCoef: 0.3, WindFactor: 0.02},
			Counts: SensorCounts{GPS: 1, Gyro: 3, Accel: 3, Mag: 3, Baro: 1},
			Rates:  defaultRates,
			Noise: NoiseFloor{
				GPSPos: 0.6, GPSVel: 0.10, Gyro: 0.008, Accel: 0.06, Mag: 0.010, Baro: 0.15,
			},
			CruiseSpeed: 2, CruiseAltitude: 0, MaxTilt: 0, MaxThrust: 2.5,
		},
		{
			Name:   ArduCopter,
			Kind:   KindQuadcopter,
			Quad:   Quadcopter{Mass: 1.5, IX: 0.020, IY: 0.020, IZ: 0.038, DragCoef: 0.30, AngularDrag: 0.010},
			Counts: SensorCounts{GPS: 1, Gyro: 3, Accel: 3, Mag: 1, Baro: 1},
			Rates:  defaultRates,
			Noise: NoiseFloor{
				GPSPos: 0.8, GPSVel: 0.12, Gyro: 0.010, Accel: 0.08, Mag: 0.012, Baro: 0.15,
			},
			CruiseSpeed: 5, CruiseAltitude: 10, MaxTilt: 0.5, MaxThrust: 4 * 1.5 * Gravity,
		},
		{
			Name:   ArduRover,
			Kind:   KindRover,
			Rover:  Rover{LF: 0.25, LR: 0.25, MaxSteer: 0.6, MaxSpeed: 4.0, DragCoef: 0.25, WindFactor: 0.02},
			Counts: SensorCounts{GPS: 1, Gyro: 3, Accel: 3, Mag: 1, Baro: 1},
			Rates:  defaultRates,
			Noise: NoiseFloor{
				GPSPos: 0.7, GPSVel: 0.10, Gyro: 0.009, Accel: 0.07, Mag: 0.011, Baro: 0.15,
			},
			CruiseSpeed: 2.5, CruiseAltitude: 0, MaxTilt: 0, MaxThrust: 2.5,
		},
	}
}
