(* The serve library's name for {!Ipet_obs.Json}, kept for clients that
   link [ipet_serve] and refer to [Ipet_serve.Json]. *)
include Ipet_obs.Json
