# expect: safe
system poly-safe-4
var x : real [0, 5]
init x >= 0.5 and x <= 0.6
trans x' = x + 0.2 * (1 * x - 0.25 * x^3)
prop x <= 2.8
