# expect: safe
system vehicle-safe-1
var v : real [0, 44.721359549995796]
init v >= 0 and v <= 1
trans v' = v + 0.5 * (5 - 0.01 * v^2)
prop v <= 29.068883707497267
