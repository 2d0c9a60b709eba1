# expect: safe
system thermostat-safe-2
var T : real [0, 100]
var on : bool
init T >= 20 and T <= 22 and on
trans (on -> T' = T + 0.5 * (34 - T)) and \
      (!on -> T' = T - 0.25 * T) and \
      (on' <-> T' <= 25)
prop T <= 40
