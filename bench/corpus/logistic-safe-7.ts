# expect: safe
system logistic-safe-7
var x : real [0, 1]
init x >= 0.1 and x <= 0.12000000000000001
trans x' = 3.1 * x * (1 - x)
prop x <= 0.925
