package profile

// Occupation is the coded occupation-job title of Table 5.
type Occupation uint8

// Occupation codes from Table 5 plus OccupationOther for the general
// population.
const (
	OccupationOther Occupation = iota
	Comedian
	Musician
	IT
	Businessman
	Model
	Actor
	Socialite
	TVHost
	Journalist
	Blogger
	Economist
	Artist
	Politician
	Photographer
	Writer
	NumOccupations // sentinel
)

var occupationCodes = [NumOccupations]string{
	"--", "Co", "Mu", "IT", "Bu", "Mo", "Ac", "So", "TV", "Jo", "Bl",
	"Ec", "Ar", "Po", "Ph", "Wr",
}

var occupationNames = [NumOccupations]string{
	"Other", "Comedian", "Musician", "Information Technology Person",
	"Businessman", "Model", "Actor", "Socialite", "Television Host",
	"Journalist", "Blogger", "Economist", "Artist", "Politician",
	"Photographer", "Writer",
}

// Code returns the two-letter code used in Table 5 ("--" for Other).
func (o Occupation) Code() string {
	if o < NumOccupations {
		return occupationCodes[o]
	}
	return "??"
}

// String returns the long name of the occupation.
func (o Occupation) String() string {
	if o < NumOccupations {
		return occupationNames[o]
	}
	return "unknown"
}
