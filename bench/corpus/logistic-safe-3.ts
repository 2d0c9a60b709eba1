# expect: safe
system logistic-safe-3
var x : real [0, 1]
init x >= 0.05 and x <= 0.07
trans x' = 3.1 * x * (1 - x)
prop x <= 0.925
