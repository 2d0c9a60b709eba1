# expect: unsafe
system thermostat-unsafe-2
var T : real [0, 100]
var on : bool
init T >= 20 and T <= 22 and on
trans (on -> T' = T + 0.5 * (82 - T)) and \
      (!on -> T' = T - 0.25 * T) and \
      (on' <-> T' <= 25)
prop T <= 40
